// Expression front-end: token definitions.
//
// The expression language is the paper's VisIt-style grammar: assignment
// statements composing arithmetic, function calls (sqrt, grad3d, ...),
// C-style bracket decomposition of vector values (du[1]), numeric literals,
// comparisons and if/then/else conditionals (the construct motivating the
// paper's introduction example).
#pragma once

#include <string_view>

namespace dfg::expr {

enum class TokenKind {
  identifier,
  number,
  plus,
  minus,
  star,
  slash,
  lparen,
  rparen,
  lbracket,
  rbracket,
  comma,
  assign,
  less,
  greater,
  less_equal,
  greater_equal,
  equal_equal,
  not_equal,
  kw_if,
  kw_then,
  kw_else,
  end_of_input,
};

const char* token_kind_name(TokenKind kind);

struct Token {
  TokenKind kind = TokenKind::end_of_input;
  /// Raw source text (identifier name or number literal): a view into the
  /// tokenized source, valid for as long as the source is.
  std::string_view text;
  /// Parsed value for number tokens.
  double value = 0.0;
  /// 1-based source position of the token's first character.
  int line = 1;
  int column = 1;
};

}  // namespace dfg::expr
