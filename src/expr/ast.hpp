// Expression front-end: abstract syntax tree.
//
// The parse tree described in the paper's §III-A: statement roots are
// assignments, call sub-trees are filter invocations whose children are
// either leaves (constants, identifiers) or nested invocations. Bracket
// indexing (du[1]) is kept as its own node kind so the network builder can
// translate it into a "decompose" filter.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

namespace dfg::expr {

enum class NodeKind {
  number,
  identifier,
  call,
  binary,
  unary_minus,
  index,
  conditional,
};

enum class BinaryOp {
  add,
  sub,
  mul,
  div,
  greater,
  less,
  greater_equal,
  less_equal,
  equal,
  not_equal,
};

const char* binary_op_symbol(BinaryOp op);

struct Node;
using NodePtr = std::unique_ptr<Node>;

struct Node {
  explicit Node(NodeKind k, int line_ = 0, int column_ = 0, int height_ = 1)
      : kind(k), line(line_), column(column_), height(height_) {}
  virtual ~Node() = default;

  NodeKind kind;
  int line = 0;
  int column = 0;
  /// Levels in the subtree rooted here (a leaf is 1). Every pass over the
  /// tree recurses once per level; the parser bounds it.
  int height = 1;
};

struct NumberNode final : Node {
  NumberNode(double v, int line, int column)
      : Node(NodeKind::number, line, column), value(v) {}
  double value;
};

struct IdentifierNode final : Node {
  IdentifierNode(std::string n, int line, int column)
      : Node(NodeKind::identifier, line, column), name(std::move(n)) {}
  std::string name;
};

struct CallNode final : Node {
  CallNode(std::string c, std::vector<NodePtr> a, int line, int column)
      : Node(NodeKind::call, line, column, 1 + tallest(a)),
        callee(std::move(c)),
        args(std::move(a)) {}
  std::string callee;
  std::vector<NodePtr> args;

 private:
  static int tallest(const std::vector<NodePtr>& nodes) {
    int height = 0;
    for (const NodePtr& node : nodes) height = std::max(height, node->height);
    return height;
  }
};

struct BinaryNode final : Node {
  BinaryNode(BinaryOp o, NodePtr l, NodePtr r, int line, int column)
      : Node(NodeKind::binary, line, column,
             1 + std::max(l->height, r->height)),
        op(o),
        lhs(std::move(l)),
        rhs(std::move(r)) {}
  BinaryOp op;
  NodePtr lhs;
  NodePtr rhs;
};

struct UnaryMinusNode final : Node {
  UnaryMinusNode(NodePtr o, int line, int column)
      : Node(NodeKind::unary_minus, line, column, 1 + o->height),
        operand(std::move(o)) {}
  NodePtr operand;
};

struct IndexNode final : Node {
  IndexNode(NodePtr b, int comp, int line, int column)
      : Node(NodeKind::index, line, column, 1 + b->height),
        base(std::move(b)),
        component(comp) {}
  NodePtr base;
  int component;
};

struct ConditionalNode final : Node {
  ConditionalNode(NodePtr c, NodePtr t, NodePtr e, int line, int column)
      : Node(NodeKind::conditional, line, column,
             1 + std::max({c->height, t->height, e->height})),
        condition(std::move(c)),
        then_value(std::move(t)),
        else_value(std::move(e)) {}
  NodePtr condition;
  NodePtr then_value;
  NodePtr else_value;
};

/// One `name = expression` statement.
struct Statement {
  std::string target;
  NodePtr value;
  int line = 0;
};

/// A parsed expression script: one or more statements; the last statement's
/// target names the derived field the script produces.
struct Script {
  std::vector<Statement> statements;
};

/// Renders a node back to expression syntax (fully parenthesised); used by
/// diagnostics and tests.
std::string to_string(const Node& node);

}  // namespace dfg::expr
