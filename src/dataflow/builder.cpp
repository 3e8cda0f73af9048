#include "dataflow/builder.hpp"

#include <array>
#include <map>
#include <string>
#include <vector>

#include "expr/parser.hpp"
#include "kernels/primitives.hpp"

namespace dfg::dataflow {

namespace {

const char* binary_filter_kind(expr::BinaryOp op) {
  switch (op) {
    case expr::BinaryOp::add:
      return "add";
    case expr::BinaryOp::sub:
      return "sub";
    case expr::BinaryOp::mul:
      return "mult";
    case expr::BinaryOp::div:
      return "div";
    case expr::BinaryOp::greater:
      return "cmp_gt";
    case expr::BinaryOp::less:
      return "cmp_lt";
    case expr::BinaryOp::greater_equal:
      return "cmp_ge";
    case expr::BinaryOp::less_equal:
      return "cmp_le";
    case expr::BinaryOp::equal:
      return "cmp_eq";
    case expr::BinaryOp::not_equal:
      return "cmp_ne";
  }
  return "?";
}

class Translator {
 public:
  explicit Translator(SpecOptions options) : spec_(options) {}

  NetworkSpec run(const expr::Script& script) {
    int last = -1;
    for (const expr::Statement& stmt : script.statements) {
      const int id = translate(*stmt.value);
      // Assignment statements map user names onto the generically named
      // invocation nodes produced by the traversal.
      names_[stmt.target] = id;
      spec_.set_label(id, stmt.target);
      last = id;
    }
    spec_.set_output(last);
    return std::move(spec_);
  }

 private:
  int translate(const expr::Node& node) {
    switch (node.kind) {
      case expr::NodeKind::number:
        return spec_.add_constant(
            static_cast<const expr::NumberNode&>(node).value);
      case expr::NodeKind::identifier: {
        const auto& ident = static_cast<const expr::IdentifierNode&>(node);
        const auto it = names_.find(ident.name);
        if (it != names_.end()) return it->second;
        // Unassigned identifiers are host-bound field arrays.
        if (ident.name.starts_with(kMemoFieldPrefix)) {
          throw NetworkError("field name '" + ident.name +
                             "' uses the prefix '" +
                             std::string(kMemoFieldPrefix) +
                             "', reserved for memoized intermediates");
        }
        return spec_.add_field_source(ident.name);
      }
      case expr::NodeKind::binary: {
        const auto& bin = static_cast<const expr::BinaryNode&>(node);
        const int lhs = translate(*bin.lhs);
        const int rhs = translate(*bin.rhs);
        return spec_.add_filter(binary_filter_kind(bin.op), {lhs, rhs});
      }
      case expr::NodeKind::unary_minus: {
        const auto& u = static_cast<const expr::UnaryMinusNode&>(node);
        return spec_.add_filter("neg", {translate(*u.operand)});
      }
      case expr::NodeKind::index: {
        const auto& idx = static_cast<const expr::IndexNode&>(node);
        return spec_.add_filter("decompose", {translate(*idx.base)},
                                idx.component);
      }
      case expr::NodeKind::conditional: {
        const auto& c = static_cast<const expr::ConditionalNode&>(node);
        const int cond = translate(*c.condition);
        const int then_value = translate(*c.then_value);
        const int else_value = translate(*c.else_value);
        return spec_.add_filter("select", {cond, then_value, else_value});
      }
      case expr::NodeKind::call: {
        const auto& call = static_cast<const expr::CallNode&>(node);
        const int expanded = expand_vector_operator(call);
        if (expanded >= 0) return expanded;
        if (kernels::find_primitive(call.callee) == nullptr) {
          throw NetworkError("unknown function '" + call.callee +
                             "' in expression");
        }
        std::vector<int> inputs;
        inputs.reserve(call.args.size());
        for (const expr::NodePtr& arg : call.args) {
          inputs.push_back(translate(*arg));
        }
        return spec_.add_filter(call.callee, inputs);
      }
    }
    throw NetworkError("unhandled expression node");
  }

  // --- Fluid-dynamics vector-field operators -------------------------------
  //
  // The CFD builtins are translation-time macros over the existing primitive
  // vocabulary: each call expands into grad3d stencils plus scalar
  // arithmetic, so every strategy and backend runs them through machinery it
  // already supports, and the scalar oracle stays the bit-exactness
  // reference with no new per-operator kernels. Gradient nodes are cached
  // per (field, mesh) operand tuple — curl's three components, the tensor
  // invariants and any mix of operators over the same velocity field share
  // exactly three stencils.

  /// d[comp][axis] = d(velocity component comp)/d(axis).
  using VelocityGrads = std::array<std::array<int, 3>, 3>;

  int filt(const char* kind, const std::vector<int>& in, int component = 0) {
    return spec_.add_filter(kind, in, component);
  }
  int cnst(double v) { return spec_.add_constant(v); }
  int add(int a, int b) { return filt("add", {a, b}); }
  int sub(int a, int b) { return filt("sub", {a, b}); }
  int mul(int a, int b) { return filt("mult", {a, b}); }
  int quo(int a, int b) { return filt("div", {a, b}); }
  int sq(int a) { return mul(a, a); }

  int gradient(int field, const std::array<int, 4>& mesh) {
    const std::array<int, 5> key{field, mesh[0], mesh[1], mesh[2], mesh[3]};
    const auto it = gradients_.find(key);
    if (it != gradients_.end()) return it->second;
    const int id =
        filt("grad3d", {field, mesh[0], mesh[1], mesh[2], mesh[3]});
    gradients_[key] = id;
    return id;
  }

  VelocityGrads velocity_grads(const std::array<int, 3>& uvw,
                               const std::array<int, 4>& mesh) {
    VelocityGrads d;
    for (int comp = 0; comp < 3; ++comp) {
      const int grad = gradient(uvw[static_cast<std::size_t>(comp)], mesh);
      for (int axis = 0; axis < 3; ++axis) {
        d[static_cast<std::size_t>(comp)][static_cast<std::size_t>(axis)] =
            filt("decompose", {grad}, axis);
      }
    }
    return d;
  }

  /// Vorticity vector components (curl of the velocity field).
  std::array<int, 3> curl_components(const VelocityGrads& d) {
    return {sub(d[2][1], d[1][2]),   // dw/dy - dv/dz
            sub(d[0][2], d[2][0]),   // du/dz - dw/dx
            sub(d[1][0], d[0][1])};  // dv/dx - du/dy
  }

  /// |curl|^2 = wx^2 + wy^2 + wz^2.
  int curl_norm_sq(const VelocityGrads& d) {
    const std::array<int, 3> w = curl_components(d);
    return add(add(sq(w[0]), sq(w[1])), sq(w[2]));
  }

  static bool is_vector_operator(const std::string& name, std::size_t argc) {
    // "div" keeps its 2-argument scalar-division meaning and only reads as
    // divergence at the 7-argument vector signature.
    if (name == "div") return argc == 7;
    return name == "divergence" || name == "curl" ||
           name == "vorticity_mag" || name == "enstrophy" ||
           name == "helicity" || name == "qcriterion" || name == "lambda2";
  }

  /// Expands a CFD operator call into grad3d + arithmetic nodes; returns -1
  /// when `call` is not one of the vector-field builtins. They all share
  /// the signature op(u, v, w, dims, x, y, z): three velocity components
  /// followed by the mesh operands grad3d takes.
  int expand_vector_operator(const expr::CallNode& call) {
    if (!is_vector_operator(call.callee, call.args.size())) return -1;
    if (call.args.size() != 7) {
      throw NetworkError("operator '" + call.callee +
                         "' expects 7 arguments: u, v, w, dims, x, y, z");
    }
    std::array<int, 3> uvw;
    for (std::size_t i = 0; i < 3; ++i) uvw[i] = translate(*call.args[i]);
    std::array<int, 4> mesh;
    for (std::size_t i = 0; i < 4; ++i) {
      mesh[i] = translate(*call.args[i + 3]);
    }
    const VelocityGrads d = velocity_grads(uvw, mesh);

    if (call.callee == "divergence" || call.callee == "div") {
      return add(add(d[0][0], d[1][1]), d[2][2]);
    }
    if (call.callee == "curl") {
      const std::array<int, 3> w = curl_components(d);
      return filt("pack3", {w[0], w[1], w[2]});
    }
    if (call.callee == "vorticity_mag") {
      return filt("sqrt", {curl_norm_sq(d)});
    }
    if (call.callee == "enstrophy") {
      return mul(cnst(0.5), curl_norm_sq(d));
    }
    if (call.callee == "helicity") {
      const std::array<int, 3> w = curl_components(d);
      return add(add(mul(uvw[0], w[0]), mul(uvw[1], w[1])),
                 mul(uvw[2], w[2]));
    }
    if (call.callee == "qcriterion") return q_criterion(d);
    return lambda2(d);
  }

  /// Strain-rate / rotation decomposition entries shared by Q and lambda2:
  /// S = 0.5(J + J^T), Omega = 0.5(J - J^T) for the velocity Jacobian J.
  struct TensorParts {
    int s11, s22, s33, s12, s13, s23;
    int o12, o13, o23;
  };

  TensorParts tensor_parts(const VelocityGrads& d) {
    const int half = cnst(0.5);
    TensorParts t;
    t.s11 = d[0][0];
    t.s22 = d[1][1];
    t.s33 = d[2][2];
    t.s12 = mul(half, add(d[0][1], d[1][0]));
    t.s13 = mul(half, add(d[0][2], d[2][0]));
    t.s23 = mul(half, add(d[1][2], d[2][1]));
    t.o12 = mul(half, sub(d[0][1], d[1][0]));
    t.o13 = mul(half, sub(d[0][2], d[2][0]));
    t.o23 = mul(half, sub(d[1][2], d[2][1]));
    return t;
  }

  /// Q = 0.5 (||Omega||^2 - ||S||^2), the second invariant of the velocity
  /// Jacobian — the paper's flagship derived field, now as one builtin.
  int q_criterion(const VelocityGrads& d) {
    const TensorParts t = tensor_parts(d);
    const int two = cnst(2.0);
    const int s_norm =
        add(add(add(sq(t.s11), sq(t.s22)), sq(t.s33)),
            mul(two, add(add(sq(t.s12), sq(t.s13)), sq(t.s23))));
    const int o_norm = mul(two, add(add(sq(t.o12), sq(t.o13)), sq(t.o23)));
    return mul(cnst(0.5), sub(o_norm, s_norm));
  }

  /// lambda2 vortex criterion: the middle eigenvalue of A = S^2 + Omega^2
  /// (symmetric), via the closed-form trigonometric eigensolve. Every step
  /// is ordinary float arithmetic on scalar nodes, so all backends compute
  /// it identically; the isotropic case (p2 == 0, A = qI) is guarded by a
  /// select whose dead branch may divide by zero without being observed.
  int lambda2(const VelocityGrads& d) {
    const TensorParts t = tensor_parts(d);
    // A = S^2 + Omega^2 with S symmetric and Omega antisymmetric.
    const int a11 = sub(add(add(sq(t.s11), sq(t.s12)), sq(t.s13)),
                        add(sq(t.o12), sq(t.o13)));
    const int a22 = sub(add(add(sq(t.s12), sq(t.s22)), sq(t.s23)),
                        add(sq(t.o12), sq(t.o23)));
    const int a33 = sub(add(add(sq(t.s13), sq(t.s23)), sq(t.s33)),
                        add(sq(t.o13), sq(t.o23)));
    const int a12 = sub(add(add(mul(t.s11, t.s12), mul(t.s12, t.s22)),
                            mul(t.s13, t.s23)),
                        mul(t.o13, t.o23));
    const int a13 = add(add(add(mul(t.s11, t.s13), mul(t.s12, t.s23)),
                            mul(t.s13, t.s33)),
                        mul(t.o12, t.o23));
    const int a23 = sub(add(add(mul(t.s12, t.s13), mul(t.s22, t.s23)),
                            mul(t.s23, t.s33)),
                        mul(t.o12, t.o13));
    // Trigonometric eigensolve for a symmetric 3x3 matrix: q = tr(A)/3,
    // p measures the deviatoric magnitude, r = det((A - qI)/p)/2 lands in
    // [-1, 1] up to rounding (clamped), and the eigenvalues are
    // q + 2p cos(phi + 2k*pi/3).
    const int q = quo(add(add(a11, a22), a33), cnst(3.0));
    const int p1 = add(add(sq(a12), sq(a13)), sq(a23));
    const int p2 = add(add(add(sq(sub(a11, q)), sq(sub(a22, q))),
                           sq(sub(a33, q))),
                       mul(cnst(2.0), p1));
    const int p = filt("sqrt", {quo(p2, cnst(6.0))});
    const int b11 = quo(sub(a11, q), p);
    const int b22 = quo(sub(a22, q), p);
    const int b33 = quo(sub(a33, q), p);
    const int b12 = quo(a12, p);
    const int b13 = quo(a13, p);
    const int b23 = quo(a23, p);
    const int detb = add(sub(mul(b11, sub(mul(b22, b33), sq(b23))),
                             mul(b12, sub(mul(b12, b33), mul(b23, b13)))),
                         mul(b13, sub(mul(b12, b23), mul(b22, b13))));
    const int r = filt("max", {cnst(-1.0),
                               filt("min", {cnst(1.0), mul(cnst(0.5), detb)})});
    const int phi = quo(filt("acos", {r}), cnst(3.0));
    const int two_p = mul(cnst(2.0), p);
    const int eig1 = add(q, mul(two_p, filt("cos", {phi})));
    const int eig3 =
        add(q, mul(two_p, filt("cos", {add(phi, cnst(2.0943951023931953))})));
    const int mid = sub(sub(mul(cnst(3.0), q), eig1), eig3);
    // Isotropic A (all off-diagonals zero, equal diagonal): every
    // eigenvalue is q and the general branch divides by p = 0.
    const int isotropic = filt("cmp_eq", {p2, cnst(0.0)});
    return filt("select", {isotropic, q, mid});
  }

  NetworkSpec spec_;
  std::map<std::string, int> names_;
  std::map<std::array<int, 5>, int> gradients_;
};

}  // namespace

NetworkSpec build_network(const expr::Script& script, SpecOptions options) {
  Translator translator(options);
  NetworkSpec spec = translator.run(script);
  if (options.prune_unreachable) {
    return prune_unreachable(spec);
  }
  return spec;
}

NetworkSpec build_network(std::string_view source, SpecOptions options) {
  return build_network(expr::parse(source), options);
}

}  // namespace dfg::dataflow
