// Unit tests for the expression parser: grammar, precedence, positions,
// error reporting.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "expr/ast.hpp"
#include "expr/parser.hpp"
#include "support/error.hpp"

namespace {

using namespace dfg::expr;

std::string parsed(const std::string& source) {
  return to_string(*parse_expression(source));
}

TEST(Parser, NumberLiteral) { EXPECT_EQ(parsed("42"), "42.0"); }

TEST(Parser, Identifier) { EXPECT_EQ(parsed("velocity"), "velocity"); }

TEST(Parser, AdditionIsLeftAssociative) {
  EXPECT_EQ(parsed("a + b + c"), "((a + b) + c)");
}

TEST(Parser, SubtractionIsLeftAssociative) {
  EXPECT_EQ(parsed("a - b - c"), "((a - b) - c)");
}

TEST(Parser, MultiplicationBindsTighterThanAddition) {
  EXPECT_EQ(parsed("a + b * c"), "(a + (b * c))");
  EXPECT_EQ(parsed("a * b + c"), "((a * b) + c)");
}

TEST(Parser, DivisionBindsLikeMultiplication) {
  EXPECT_EQ(parsed("a / b * c"), "((a / b) * c)");
}

TEST(Parser, ParenthesesOverridePrecedence) {
  EXPECT_EQ(parsed("(a + b) * c"), "((a + b) * c)");
}

TEST(Parser, UnaryMinusOnIdentifier) {
  EXPECT_EQ(parsed("-a * b"), "((-a) * b)");
}

TEST(Parser, UnaryMinusFoldsNumberLiterals) {
  // "-c * c" in the paper's intro example: the sign belongs to the literal
  // when the operand is a number, and to a neg filter otherwise.
  EXPECT_EQ(parsed("-2"), "-2.0");
  EXPECT_EQ(parsed("--2"), "2.0");
}

TEST(Parser, ComparisonLowerPrecedenceThanArithmetic) {
  EXPECT_EQ(parsed("a + b > c * d"), "((a + b) > (c * d))");
}

TEST(Parser, AllComparisonOperators) {
  EXPECT_EQ(parsed("a < b"), "(a < b)");
  EXPECT_EQ(parsed("a >= b"), "(a >= b)");
  EXPECT_EQ(parsed("a <= b"), "(a <= b)");
  EXPECT_EQ(parsed("a == b"), "(a == b)");
  EXPECT_EQ(parsed("a != b"), "(a != b)");
}

TEST(Parser, CallWithArguments) {
  EXPECT_EQ(parsed("grad3d(u, dims, x, y, z)"), "grad3d(u, dims, x, y, z)");
}

TEST(Parser, CallNoArguments) { EXPECT_EQ(parsed("foo()"), "foo()"); }

TEST(Parser, NestedCalls) {
  EXPECT_EQ(parsed("sqrt(abs(a))"), "sqrt(abs(a))");
}

TEST(Parser, IndexPostfix) {
  EXPECT_EQ(parsed("du[1]"), "du[1]");
  EXPECT_EQ(parsed("grad3d(u, dims, x, y, z)[2]"),
            "grad3d(u, dims, x, y, z)[2]");
}

TEST(Parser, ChainedIndex) { EXPECT_EQ(parsed("a[1][0]"), "a[1][0]"); }

TEST(Parser, IndexRequiresIntegerLiteral) {
  EXPECT_THROW(parse_expression("a[b]"), dfg::ParseError);
  EXPECT_THROW(parse_expression("a[1.5]"), dfg::ParseError);
}

TEST(Parser, Conditional) {
  EXPECT_EQ(parsed("if (a > 10) then (c * c) else (-c * c)"),
            "if ((a > 10.0)) then ((c * c)) else (((-c) * c))");
}

TEST(Parser, ConditionalRequiresFullSyntax) {
  EXPECT_THROW(parse_expression("if (a) then (b)"), dfg::ParseError);
  EXPECT_THROW(parse_expression("if a then (b) else (c)"), dfg::ParseError);
}

TEST(Parser, ScriptWithMultipleStatements) {
  const Script script = parse("a = 1\nb = a + 2\nc = b * b");
  ASSERT_EQ(script.statements.size(), 3u);
  EXPECT_EQ(script.statements[0].target, "a");
  EXPECT_EQ(script.statements[2].target, "c");
  EXPECT_EQ(to_string(*script.statements[2].value), "(b * b)");
}

TEST(Parser, StatementsNeedNoSeparators) {
  // Newlines are pure whitespace; statement boundaries come from the
  // IDENT '=' lookahead, like the paper's one-statement-per-line listings.
  const Script script = parse("a = u + v b = a * a");
  ASSERT_EQ(script.statements.size(), 2u);
}

TEST(Parser, EmptyScriptThrows) {
  EXPECT_THROW(parse(""), dfg::ParseError);
  EXPECT_THROW(parse("   # only a comment"), dfg::ParseError);
}

TEST(Parser, MissingAssignThrows) {
  EXPECT_THROW(parse("a b"), dfg::ParseError);
}

TEST(Parser, UnbalancedParenthesisThrowsWithPosition) {
  try {
    parse("a = (b + c");
    FAIL() << "expected ParseError";
  } catch (const dfg::ParseError& err) {
    EXPECT_EQ(err.line(), 1);
    EXPECT_GT(err.column(), 1);
  }
}

TEST(Parser, DanglingOperatorThrows) {
  EXPECT_THROW(parse("a = b +"), dfg::ParseError);
}

TEST(Parser, TrailingTokensAfterExpressionThrow) {
  EXPECT_THROW(parse_expression("a + b)"), dfg::ParseError);
}

TEST(Parser, PaperQCriterionParses) {
  const Script script = parse(R"(
du = grad3d(u, dims, x, y, z)
s_1 = 0.5 * (du[1] + dv[0])
q = 0.5 * (w_norm - s_norm)
)");
  EXPECT_EQ(script.statements.size(), 3u);
  EXPECT_EQ(script.statements[1].target, "s_1");
  EXPECT_EQ(to_string(*script.statements[1].value),
            "(0.5 * (du[1] + dv[0]))");
}

// Inputs deep enough to overflow the stack — in the parser's own
// recursion, or in a later pass over a tree one level per term — must be
// rejected as syntax errors.
std::string nested_parens(int depth) {
  return "q = " + std::string(depth, '(') + "u" + std::string(depth, ')');
}

std::string chained_negation(int depth) {
  return "q = " + std::string(depth, '-') + "u";
}

std::string long_sum(int terms) {
  std::string source = "q = u";
  for (int i = 1; i < terms; ++i) source += "+u";
  return source;
}

/// Parses `source`, which must fail on line 1 with a message containing
/// `needle`.
void expect_parse_error(const std::string& source, const std::string& needle) {
  try {
    parse(source);
    FAIL() << "expected ParseError";
  } catch (const dfg::ParseError& err) {
    EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
        << err.what();
    EXPECT_EQ(err.line(), 1);
  }
}

void expect_too_deep(const std::string& source) {
  expect_parse_error(source, "deeper than");
}

/// A flat chain is refused as a chain-length limit naming its full
/// operand count, however far past the cap it runs.
void expect_chain_too_long(int terms) {
  expect_parse_error(long_sum(terms), "operator chain of " +
                                          std::to_string(terms) +
                                          " operands is too long");
}

TEST(Parser, TooDeepInputThrowsParseError) {
  expect_too_deep(nested_parens(30000));
  expect_too_deep(chained_negation(30000));
  expect_chain_too_long(100000);
}

TEST(Parser, DepthCapCountsTreeHeightExactly) {
  // A sum of n terms is a tree n levels tall.
  EXPECT_EQ(parse(long_sum(kMaxSyntaxDepth)).statements[0].value->height,
            kMaxSyntaxDepth);
  expect_chain_too_long(kMaxSyntaxDepth + 1);
  // The statement's expression is one level of nesting, each '(' another.
  EXPECT_NO_THROW(parse(nested_parens(kMaxSyntaxDepth - 1)));
  expect_too_deep(nested_parens(kMaxSyntaxDepth));
}

TEST(Parser, ChainOf257TermsReportsItsLength) {
  // r = u + u + ... with 257 operands: flat, not nested, so the error is
  // about the chain's length, with the cap it crossed.
  expect_parse_error(long_sum(257),
                     "operator chain of 257 operands is too long");
  expect_parse_error(long_sum(257), "limited to 256 levels");
  // Products chain the same way.
  std::string product = "q = u";
  for (int i = 1; i < 300; ++i) product += "*u";
  expect_parse_error(product, "operator chain of 300 operands");
}

TEST(Parser, GenuineNestingReportsDepth) {
  // Parenthesised sums nest: each level holds a two-operand chain, so the
  // depth limit, not a chain length, is what the error names.
  std::string nested = "u";
  for (int i = 0; i < 300; ++i) nested = "(" + nested + " + u)";
  try {
    parse("q = " + nested);
    FAIL() << "expected ParseError";
  } catch (const dfg::ParseError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("nests deeper than 256 levels"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("chain"), std::string::npos) << what;
  }
}

/// `statements` reassignments of q, one per line.
std::string reassignments(int statements) {
  std::string source = "q = u\n";
  for (int i = 1; i < statements; ++i) source += "q = q + u\n";
  return source;
}

TEST(Parser, StatementCapCountsStatementsExactly) {
  EXPECT_EQ(parse(reassignments(kMaxScriptStatements)).statements.size(),
            static_cast<std::size_t>(kMaxScriptStatements));
  try {
    parse(reassignments(kMaxScriptStatements + 1));
    FAIL() << "expected ParseError";
  } catch (const dfg::ParseError& err) {
    EXPECT_NE(std::string(err.what()).find(
                  "more than " + std::to_string(kMaxScriptStatements) +
                  " statements"),
              std::string::npos)
        << err.what();
    EXPECT_EQ(err.line(), kMaxScriptStatements + 1);
  }
}

TEST(Parser, RunawayScriptIsRefusedWithinFiftyMilliseconds) {
  // 100k reassignments: refused by the statement cap before the input is
  // tokenised in full, instead of running into the register allocator.
  const std::string source = reassignments(100000);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(parse(source), dfg::ParseError);
  const std::chrono::duration<double, std::milli> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LE(took.count(), 50.0);
}

TEST(Parser, PositionsPropagateToNodes) {
  const Script script = parse("abc = u + v");
  const auto& bin = static_cast<const BinaryNode&>(*script.statements[0].value);
  EXPECT_EQ(bin.line, 1);
  EXPECT_EQ(bin.column, 9);  // the '+'
}

}  // namespace
