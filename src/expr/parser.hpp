// Expression front-end: parser.
//
// Recursive-descent with precedence climbing, the idiomatic C++ analogue of
// the paper's PLY LR(1) parser over the same grammar:
//
//   script      := statement+
//   statement   := IDENT '=' expr
//   expr        := additive (CMPOP additive)?          (non-associative)
//   additive    := multiplicative (('+'|'-') multiplicative)*
//   multiplicative := unary (('*'|'/') unary)*
//   unary       := '-' unary | postfix
//   postfix     := primary ('[' NUMBER ']')*
//   primary     := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')'
//                | '(' expr ')'
//                | 'if' '(' expr ')' 'then' '(' expr ')' 'else' '(' expr ')'
//
// Semantic checks that need the filter registry or field bindings (unknown
// filters, arity, component shapes) are deferred to the network builder so
// the parser stays purely syntactic.
//
// Depth is bounded: a tree taller than kMaxSyntaxDepth, or input nested
// deeper than that (parentheses, calls, unary minus), is a ParseError, not
// a stack overflow in the parser or in any later pass over the tree. A
// flat operator chain (`u + u + ...`) adds one tree level per operand; one
// that crosses the bound is reported as a chain-length error naming the
// chain's full operand count. Longer scripts than kMaxScriptStatements
// are a ParseError too.
#pragma once

#include <string_view>

#include "expr/ast.hpp"

namespace dfg::expr {

/// Deepest nesting and tallest syntax tree the parser accepts. Real
/// derived-field expressions stay within a few dozen levels. The bound
/// leaves wide stack headroom even unoptimized under AddressSanitizer,
/// where one parenthesised level of the descent costs about 8 KB and one
/// tree level of network building about 2 KB.
inline constexpr int kMaxSyntaxDepth = 256;

/// Most statements a script may hold (the Q-criterion, the longest in the
/// tree, has 18). The lexer counts them, one '=' each, as it scans, so a
/// runaway script is refused before it is even tokenised in full.
inline constexpr int kMaxScriptStatements = 4096;

/// Parses a full expression script (one or more assignment statements).
/// Throws ParseError with source positions on syntax errors, including
/// input deeper than kMaxSyntaxDepth or longer than kMaxScriptStatements.
Script parse(std::string_view source);

/// Parses a single expression (no assignment); used by tests and by hosts
/// that evaluate anonymous expressions.
NodePtr parse_expression(std::string_view source);

}  // namespace dfg::expr
