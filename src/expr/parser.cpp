#include "expr/parser.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "expr/lexer.hpp"
#include "support/error.hpp"

namespace dfg::expr {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Script parse_script() {
    Script script;
    while (!at(TokenKind::end_of_input)) {
      script.statements.push_back(parse_statement());
    }
    if (script.statements.empty()) {
      throw ParseError("empty expression script", 1, 1);
    }
    return script;
  }

  NodePtr parse_single_expression() {
    NodePtr e = parse_expr();
    expect(TokenKind::end_of_input, "after expression");
    return e;
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool at(TokenKind kind) const { return peek().kind == kind; }
  Token consume() { return tokens_[pos_++]; }
  bool accept(TokenKind kind) {
    if (at(kind)) {
      ++pos_;
      return true;
    }
    return false;
  }
  /// Rejects a tree taller than kMaxSyntaxDepth at its root's position.
  /// Operator chains (`u+u+...`) are bounded by parse_chain instead.
  NodePtr bounded(NodePtr node) const {
    if (node->height > kMaxSyntaxDepth) {
      throw too_deep(node->line, node->column);
    }
    return node;
  }

  static ParseError too_deep(int line, int column) {
    return ParseError("expression nests deeper than " +
                          std::to_string(kMaxSyntaxDepth) + " levels",
                      line, column);
  }

  /// Bounds the recursive descent itself: parentheses add no tree level,
  /// so `((((u))))` is only caught here.
  class Nesting {
   public:
    explicit Nesting(Parser& parser) : parser_(parser) {
      if (++parser_.nesting_ > kMaxSyntaxDepth) {
        throw too_deep(parser_.peek().line, parser_.peek().column);
      }
    }
    ~Nesting() { --parser_.nesting_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

   private:
    Parser& parser_;
  };

  Token expect(TokenKind kind, const char* context) {
    if (!at(kind)) {
      const Token& t = peek();
      throw ParseError(std::string("expected ") + token_kind_name(kind) + " " +
                           context + ", found " + token_kind_name(t.kind) +
                           (t.text.empty() ? ""
                                           : " '" + std::string(t.text) + "'"),
                       t.line, t.column);
    }
    return consume();
  }

  Statement parse_statement() {
    const Token name = expect(TokenKind::identifier, "at start of statement");
    expect(TokenKind::assign, "after statement target");
    Statement stmt;
    stmt.target = name.text;
    stmt.line = name.line;
    stmt.value = parse_expr();
    return stmt;
  }

  NodePtr parse_expr() {
    const Nesting nesting(*this);
    return parse_comparison();
  }

  NodePtr parse_comparison() {
    NodePtr lhs = parse_additive();
    BinaryOp op;
    switch (peek().kind) {
      case TokenKind::greater:
        op = BinaryOp::greater;
        break;
      case TokenKind::less:
        op = BinaryOp::less;
        break;
      case TokenKind::greater_equal:
        op = BinaryOp::greater_equal;
        break;
      case TokenKind::less_equal:
        op = BinaryOp::less_equal;
        break;
      case TokenKind::equal_equal:
        op = BinaryOp::equal;
        break;
      case TokenKind::not_equal:
        op = BinaryOp::not_equal;
        break;
      default:
        return lhs;
    }
    const Token tok = consume();
    NodePtr rhs = parse_additive();
    return bounded(std::make_unique<BinaryNode>(
        op, std::move(lhs), std::move(rhs), tok.line, tok.column));
  }

  NodePtr parse_additive() {
    return parse_chain(TokenKind::plus, BinaryOp::add, TokenKind::minus,
                       BinaryOp::sub, &Parser::parse_multiplicative);
  }

  NodePtr parse_multiplicative() {
    return parse_chain(TokenKind::star, BinaryOp::mul, TokenKind::slash,
                       BinaryOp::div, &Parser::parse_unary);
  }

  /// A left-associative chain `operand (op operand)*`. Each operand adds
  /// a tree level, so a chain taller than kMaxSyntaxDepth is refused, with
  /// its full operand count: the rest of the chain is still read.
  NodePtr parse_chain(TokenKind first, BinaryOp first_op, TokenKind second,
                      BinaryOp second_op, NodePtr (Parser::*operand)()) {
    NodePtr lhs = (this->*operand)();
    for (std::size_t operands = 2; at(first) || at(second); ++operands) {
      const Token tok = consume();
      NodePtr rhs = (this->*operand)();
      lhs = std::make_unique<BinaryNode>(
          tok.kind == first ? first_op : second_op, std::move(lhs),
          std::move(rhs), tok.line, tok.column);
      if (lhs->height <= kMaxSyntaxDepth) continue;
      for (; at(first) || at(second); ++operands) {
        consume();
        (this->*operand)();
      }
      throw ParseError(
          "operator chain of " + std::to_string(operands) +
              " operands is too long: each operand adds a level to the "
              "expression tree, which is limited to " +
              std::to_string(kMaxSyntaxDepth) + " levels",
          tok.line, tok.column);
    }
    return lhs;
  }

  NodePtr parse_unary() {
    if (at(TokenKind::minus)) {
      const Nesting nesting(*this);
      const Token tok = consume();
      NodePtr operand = parse_unary();
      // Fold a literal negation so "-c" is a constant, not a neg filter.
      if (operand->kind == NodeKind::number) {
        auto& num = static_cast<NumberNode&>(*operand);
        return std::make_unique<NumberNode>(-num.value, tok.line, tok.column);
      }
      return bounded(std::make_unique<UnaryMinusNode>(std::move(operand),
                                                      tok.line, tok.column));
    }
    return parse_postfix();
  }

  NodePtr parse_postfix() {
    NodePtr base = parse_primary();
    while (at(TokenKind::lbracket)) {
      const Token tok = consume();
      const Token index = expect(TokenKind::number, "as component index");
      double integral;
      if (std::modf(index.value, &integral) != 0.0 || index.value < 0) {
        throw ParseError("component index must be a non-negative integer",
                         index.line, index.column);
      }
      expect(TokenKind::rbracket, "after component index");
      base = bounded(std::make_unique<IndexNode>(
          std::move(base), static_cast<int>(index.value), tok.line,
          tok.column));
    }
    return base;
  }

  NodePtr parse_primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::number: {
        const Token tok = consume();
        return std::make_unique<NumberNode>(tok.value, tok.line, tok.column);
      }
      case TokenKind::identifier: {
        const Token tok = consume();
        if (accept(TokenKind::lparen)) {
          std::vector<NodePtr> args;
          if (!at(TokenKind::rparen)) {
            args.push_back(parse_expr());
            while (accept(TokenKind::comma)) args.push_back(parse_expr());
          }
          expect(TokenKind::rparen, "to close argument list");
          return bounded(std::make_unique<CallNode>(
              std::string(tok.text), std::move(args), tok.line, tok.column));
        }
        return std::make_unique<IdentifierNode>(std::string(tok.text),
                                                tok.line, tok.column);
      }
      case TokenKind::lparen: {
        consume();
        NodePtr inner = parse_expr();
        expect(TokenKind::rparen, "to close parenthesised expression");
        return inner;
      }
      case TokenKind::kw_if: {
        const Token tok = consume();
        expect(TokenKind::lparen, "after 'if'");
        NodePtr cond = parse_expr();
        expect(TokenKind::rparen, "to close 'if' condition");
        expect(TokenKind::kw_then, "after 'if (...)'");
        expect(TokenKind::lparen, "after 'then'");
        NodePtr then_value = parse_expr();
        expect(TokenKind::rparen, "to close 'then' expression");
        expect(TokenKind::kw_else, "after 'then (...)'");
        expect(TokenKind::lparen, "after 'else'");
        NodePtr else_value = parse_expr();
        expect(TokenKind::rparen, "to close 'else' expression");
        return bounded(std::make_unique<ConditionalNode>(
            std::move(cond), std::move(then_value), std::move(else_value),
            tok.line, tok.column));
      }
      default:
        throw ParseError(std::string("expected an expression, found ") +
                             token_kind_name(t.kind) +
                             (t.text.empty()
                                  ? ""
                                  : " '" + std::string(t.text) + "'"),
                         t.line, t.column);
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int nesting_ = 0;
};

}  // namespace

Script parse(std::string_view source) {
  Parser parser(tokenize(source));
  return parser.parse_script();
}

NodePtr parse_expression(std::string_view source) {
  Parser parser(tokenize(source));
  return parser.parse_single_expression();
}

}  // namespace dfg::expr
