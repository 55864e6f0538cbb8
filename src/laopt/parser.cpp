#include "laopt/parser.h"

#include <cctype>
#include <optional>
#include <vector>

#include "laopt/executor.h"
#include "laopt/optimizer.h"
#include "laopt/verify.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace dmml::laopt {

namespace {

enum class TokenKind { kNumber, kIdent, kPlus, kMinus, kStar, kMatMul, kLParen,
                       kRParen, kEnd };

struct Token {
  TokenKind kind;
  std::string text;
  double number = 0;
  size_t pos = 0;
};

Result<std::vector<Token>> Tokenize(const std::string& src) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < src.size()) {
    char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    if (c == '+') {
      tokens.push_back({TokenKind::kPlus, "+", 0, start});
      ++i;
    } else if (c == '-') {
      tokens.push_back({TokenKind::kMinus, "-", 0, start});
      ++i;
    } else if (c == '(') {
      tokens.push_back({TokenKind::kLParen, "(", 0, start});
      ++i;
    } else if (c == ')') {
      tokens.push_back({TokenKind::kRParen, ")", 0, start});
      ++i;
    } else if (c == '%') {
      if (src.compare(i, 3, "%*%") == 0) {
        tokens.push_back({TokenKind::kMatMul, "%*%", 0, start});
        i += 3;
      } else {
        return Status::InvalidArgument("unexpected '%' at position " +
                                       std::to_string(start));
      }
    } else if (c == '*') {
      tokens.push_back({TokenKind::kStar, "*", 0, start});
      ++i;
    } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      size_t j = i;
      while (j < src.size() &&
             (std::isdigit(static_cast<unsigned char>(src[j])) || src[j] == '.' ||
              src[j] == 'e' || src[j] == 'E' ||
              ((src[j] == '+' || src[j] == '-') && j > i &&
               (src[j - 1] == 'e' || src[j - 1] == 'E')))) {
        ++j;
      }
      DMML_ASSIGN_OR_RETURN(double value, ParseDouble(src.substr(i, j - i)));
      tokens.push_back({TokenKind::kNumber, src.substr(i, j - i), value, start});
      i = j;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < src.size() && (std::isalnum(static_cast<unsigned char>(src[j])) ||
                                src[j] == '_' || src[j] == '.')) {
        ++j;
      }
      tokens.push_back({TokenKind::kIdent, src.substr(i, j - i), 0, start});
      i = j;
    } else {
      return Status::InvalidArgument("unexpected character '" + std::string(1, c) +
                                     "' at position " + std::to_string(start));
    }
  }
  tokens.push_back({TokenKind::kEnd, "", 0, src.size()});
  return tokens;
}

// A parsed value is a matrix expression or a scalar (folded until it touches
// a matrix via '*', '+', or '-' with another scalar).
struct ParsedValue {
  ExprPtr expr;            // Null when scalar.
  double scalar = 0;
  bool is_scalar = false;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const Environment& env,
         const ParseOptions& options)
      : tokens_(std::move(tokens)), env_(env), options_(options) {}

  // Routes through the checked factories normally, or through MakeUnchecked
  // when shape checking is deferred to the plan-time analyzer.
  Result<ExprPtr> Build(OpKind kind, std::vector<ExprPtr> children,
                        double scalar = 1.0) {
    if (options_.defer_shape_checks) {
      return ExprNode::MakeUnchecked(kind, std::move(children), scalar);
    }
    switch (kind) {
      case OpKind::kMatMul:
        return ExprNode::MatMul(children[0], children[1]);
      case OpKind::kTranspose:
        return ExprNode::Transpose(children[0]);
      case OpKind::kAdd:
        return ExprNode::Add(children[0], children[1]);
      case OpKind::kSubtract:
        return ExprNode::Subtract(children[0], children[1]);
      case OpKind::kElemMul:
        return ExprNode::ElemMul(children[0], children[1]);
      case OpKind::kScalarMul:
        return ExprNode::ScalarMul(scalar, children[0]);
      case OpKind::kSum:
        return ExprNode::Sum(children[0]);
      case OpKind::kRowSums:
        return ExprNode::RowSums(children[0]);
      case OpKind::kColSums:
        return ExprNode::ColSums(children[0]);
      case OpKind::kInput:
      case OpKind::kFused:
        break;
    }
    return Status::Internal("parser: unexpected op kind");
  }

  Result<ParsedValue> ParseExpr() {
    DMML_ASSIGN_OR_RETURN(ParsedValue lhs, ParseTerm());
    while (Peek().kind == TokenKind::kPlus || Peek().kind == TokenKind::kMinus) {
      bool plus = Take().kind == TokenKind::kPlus;
      DMML_ASSIGN_OR_RETURN(ParsedValue rhs, ParseTerm());
      if (lhs.is_scalar && rhs.is_scalar) {
        lhs.scalar = plus ? lhs.scalar + rhs.scalar : lhs.scalar - rhs.scalar;
        continue;
      }
      if (lhs.is_scalar || rhs.is_scalar) {
        return Status::InvalidArgument(
            "cannot add a scalar to a matrix; use elementwise tricks explicitly");
      }
      DMML_ASSIGN_OR_RETURN(
          lhs.expr, Build(plus ? OpKind::kAdd : OpKind::kSubtract,
                          {lhs.expr, rhs.expr}));
    }
    return lhs;
  }

  Result<ParsedValue> ParseTerm() {
    DMML_ASSIGN_OR_RETURN(ParsedValue lhs, ParseFactor());
    while (Peek().kind == TokenKind::kStar || Peek().kind == TokenKind::kMatMul) {
      bool matmul = Take().kind == TokenKind::kMatMul;
      DMML_ASSIGN_OR_RETURN(ParsedValue rhs, ParseFactor());
      if (matmul) {
        if (lhs.is_scalar || rhs.is_scalar) {
          return Status::InvalidArgument("%*% requires matrix operands");
        }
        DMML_ASSIGN_OR_RETURN(lhs.expr,
                              Build(OpKind::kMatMul, {lhs.expr, rhs.expr}));
        continue;
      }
      // '*': scalar folding, scalar*matrix, or elementwise matrix product.
      if (lhs.is_scalar && rhs.is_scalar) {
        lhs.scalar *= rhs.scalar;
      } else if (lhs.is_scalar) {
        DMML_ASSIGN_OR_RETURN(rhs.expr,
                              Build(OpKind::kScalarMul, {rhs.expr}, lhs.scalar));
        lhs = rhs;
      } else if (rhs.is_scalar) {
        DMML_ASSIGN_OR_RETURN(lhs.expr,
                              Build(OpKind::kScalarMul, {lhs.expr}, rhs.scalar));
      } else {
        DMML_ASSIGN_OR_RETURN(lhs.expr,
                              Build(OpKind::kElemMul, {lhs.expr, rhs.expr}));
      }
    }
    return lhs;
  }

  Result<ParsedValue> ParseFactor() {
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kNumber: {
        Take();
        ParsedValue value;
        value.is_scalar = true;
        value.scalar = token.number;
        return value;
      }
      case TokenKind::kMinus: {
        Take();
        DMML_ASSIGN_OR_RETURN(ParsedValue inner, ParseFactor());
        if (inner.is_scalar) {
          inner.scalar = -inner.scalar;
        } else {
          DMML_ASSIGN_OR_RETURN(inner.expr,
                                Build(OpKind::kScalarMul, {inner.expr}, -1.0));
        }
        return inner;
      }
      case TokenKind::kIdent: {
        Take();
        // Builtins: t(...), sum(...), rowSums(...), colSums(...).
        const bool is_builtin = token.text == "t" || token.text == "sum" ||
                                token.text == "rowSums" || token.text == "colSums";
        if (is_builtin && Peek().kind == TokenKind::kLParen) {
          Take();
          DMML_ASSIGN_OR_RETURN(ParsedValue inner, ParseExpr());
          DMML_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
          if (inner.is_scalar) {
            return Status::InvalidArgument(token.text + "() requires a matrix operand");
          }
          ParsedValue value;
          OpKind kind = OpKind::kTranspose;
          if (token.text == "sum") kind = OpKind::kSum;
          else if (token.text == "rowSums") kind = OpKind::kRowSums;
          else if (token.text == "colSums") kind = OpKind::kColSums;
          DMML_ASSIGN_OR_RETURN(value.expr, Build(kind, {inner.expr}));
          return value;
        }
        auto it = env_.find(token.text);
        if (it == env_.end()) {
          return Status::NotFound("unknown identifier '" + token.text +
                                  "' at position " + std::to_string(token.pos));
        }
        // One leaf per name per parse: every occurrence is the same node, so
        // `t(X) %*% X` reaches the executor's Gram pattern and a non-dense
        // X densifies at most once per run.
        ExprPtr& leaf = leaves_[token.text];
        if (!leaf) {
          DMML_ASSIGN_OR_RETURN(leaf, ExprNode::InputOperand(it->second, token.text));
        }
        ParsedValue value;
        value.expr = leaf;
        return value;
      }
      case TokenKind::kLParen: {
        Take();
        DMML_ASSIGN_OR_RETURN(ParsedValue inner, ParseExpr());
        DMML_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return inner;
      }
      default:
        return Status::InvalidArgument("unexpected token '" + token.text +
                                       "' at position " + std::to_string(token.pos));
    }
  }

  Status Expect(TokenKind kind) {
    if (Peek().kind != kind) {
      return Status::InvalidArgument("expected ')' at position " +
                                     std::to_string(Peek().pos));
    }
    Take();
    return Status::OK();
  }

  const Token& Peek() const { return tokens_[cursor_]; }
  const Token& Take() { return tokens_[cursor_++]; }

  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

 private:
  std::vector<Token> tokens_;
  const Environment& env_;
  ParseOptions options_;
  size_t cursor_ = 0;
  std::map<std::string, ExprPtr> leaves_;  // The leaf of each name seen.
};

}  // namespace

Result<ExprPtr> ParseExpression(const std::string& source, const Environment& env) {
  return ParseExpression(source, env, ParseOptions{});
}

Result<ExprPtr> ParseExpression(const std::string& source, const Environment& env,
                                const ParseOptions& options) {
  DMML_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Parser parser(std::move(tokens), env, options);
  DMML_ASSIGN_OR_RETURN(ParsedValue value, parser.ParseExpr());
  if (!parser.AtEnd()) {
    return Status::InvalidArgument("trailing input after expression");
  }
  if (value.is_scalar) {
    return Status::InvalidArgument("expression evaluates to a scalar, not a matrix");
  }
  // Under DMML_LINT=1 the parser is where binding names are known, so this
  // is the one place lint.unused_binding can fire: environment entries the
  // expression never references.
  if (LintEnabled()) {
    std::vector<std::string> bound_names;
    bound_names.reserve(env.size());
    for (const auto& kv : env) bound_names.push_back(kv.first);
    std::vector<Diagnostic> lint = LintPlan(value.expr, bound_names);
    if (!lint.empty()) {
      DMML_LOG(Info) << "DMML_LINT (parser)\n" << RenderDiagnostics(lint);
    }
  }
  return value.expr;
}

Result<la::DenseMatrix> EvalExpression(const std::string& source,
                                       const Environment& env, ThreadPool* pool) {
  return EvalExpression(source, env, pool, nullptr);
}

Result<la::DenseMatrix> EvalExpression(const std::string& source,
                                       const Environment& env, ThreadPool* pool,
                                       PlanProfile* profile) {
  DMML_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpression(source, env));
  DMML_ASSIGN_OR_RETURN(ExprPtr optimized, Optimize(expr));
  BufferedExecutor executor(pool);
  executor.set_profile(profile);
  DMML_ASSIGN_OR_RETURN(const la::DenseMatrix* out, executor.Run(optimized));
  return *out;  // Copies out of the executor's transient buffers.
}

}  // namespace dmml::laopt
