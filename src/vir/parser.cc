#include "src/vir/parser.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <vector>

#include "src/support/strings.h"
#include "src/vir/builder.h"
#include "src/vir/instructions.h"
#include "src/vir/intrinsics.h"

namespace sva::vir {
namespace {

enum class TokKind {
  kEof,
  kIdent,       // bare identifier / keyword
  kLocal,       // %name
  kGlobal,      // @name
  kAnnotation,  // !name
  kInt,         // integer literal (possibly negative)
  kFloat,       // floating literal
  kString,      // "..."
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kLBracket,
  kRBracket,
  kComma,
  kEquals,
  kColon,
  kStar,
  kEllipsis,
};

struct Token {
  TokKind kind = TokKind::kEof;
  std::string text;
  int64_t int_value = 0;
  double float_value = 0;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { Advance(); }

  const Token& Peek() const { return current_; }
  Token Take() {
    Token t = current_;
    Advance();
    return t;
  }
  int line() const { return line_; }

 private:
  void Advance() {
    SkipWhitespaceAndComments();
    current_ = Token();
    current_.line = line_;
    if (pos_ >= text_.size()) {
      current_.kind = TokKind::kEof;
      return;
    }
    char c = text_[pos_];
    switch (c) {
      case '(': current_.kind = TokKind::kLParen; ++pos_; return;
      case ')': current_.kind = TokKind::kRParen; ++pos_; return;
      case '{': current_.kind = TokKind::kLBrace; ++pos_; return;
      case '}': current_.kind = TokKind::kRBrace; ++pos_; return;
      case '[': current_.kind = TokKind::kLBracket; ++pos_; return;
      case ']': current_.kind = TokKind::kRBracket; ++pos_; return;
      case ',': current_.kind = TokKind::kComma; ++pos_; return;
      case '=': current_.kind = TokKind::kEquals; ++pos_; return;
      case ':': current_.kind = TokKind::kColon; ++pos_; return;
      case '*': current_.kind = TokKind::kStar; ++pos_; return;
      default: break;
    }
    if (c == '.') {
      if (text_.substr(pos_, 3) == "...") {
        current_.kind = TokKind::kEllipsis;
        pos_ += 3;
        return;
      }
    }
    if (c == '"') {
      ++pos_;
      size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        ++pos_;
      }
      current_.kind = TokKind::kString;
      current_.text = std::string(text_.substr(start, pos_ - start));
      if (pos_ < text_.size()) {
        ++pos_;
      }
      return;
    }
    if (c == '%' || c == '@' || c == '!') {
      ++pos_;
      size_t start = pos_;
      while (pos_ < text_.size() && IsIdentChar(text_[pos_])) {
        ++pos_;
      }
      current_.text = std::string(text_.substr(start, pos_ - start));
      current_.kind = c == '%'   ? TokKind::kLocal
                      : c == '@' ? TokKind::kGlobal
                                 : TokKind::kAnnotation;
      return;
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      if (c == '-') {
        ++pos_;
      }
      bool is_float = false;
      while (pos_ < text_.size()) {
        char d = text_[pos_];
        if (std::isdigit(static_cast<unsigned char>(d))) {
          ++pos_;
        } else if (d == '.' && pos_ + 1 < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
          is_float = true;
          ++pos_;
        } else if ((d == 'e' || d == 'E') && pos_ + 1 < text_.size()) {
          is_float = true;
          ++pos_;
          if (pos_ < text_.size() &&
              (text_[pos_] == '+' || text_[pos_] == '-')) {
            ++pos_;
          }
        } else {
          break;
        }
      }
      std::string num(text_.substr(start, pos_ - start));
      if (is_float) {
        current_.kind = TokKind::kFloat;
        current_.float_value = std::strtod(num.c_str(), nullptr);
      } else {
        current_.kind = TokKind::kInt;
        current_.int_value = std::strtoll(num.c_str(), nullptr, 10);
      }
      current_.text = std::move(num);
      return;
    }
    if (IsIdentChar(c)) {
      size_t start = pos_;
      while (pos_ < text_.size() && IsIdentChar(text_[pos_])) {
        ++pos_;
      }
      current_.kind = TokKind::kIdent;
      current_.text = std::string(text_.substr(start, pos_ - start));
      return;
    }
    // Unknown character: emit as ident of one char so the parser reports it.
    current_.kind = TokKind::kIdent;
    current_.text = std::string(1, c);
    ++pos_;
  }

  static bool IsIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
  }

  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (c == ' ' || c == '\t' || c == '\r') {
        ++pos_;
      } else if (c == ';') {
        while (pos_ < text_.size() && text_[pos_] != '\n') {
          ++pos_;
        }
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  Token current_;
};

// A pending operand reference that could not be resolved when first seen
// (forward reference to a value defined later in the function).
struct Fixup {
  Instruction* inst = nullptr;
  // Operand index, or if phi_index >= 0, the phi incoming slot.
  size_t operand_index = 0;
  int phi_index = -1;
  std::string name;
  int line = 0;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) {}

  Result<std::unique_ptr<Module>> Parse() {
    SVA_RETURN_IF_ERROR(Expect(TokKind::kIdent, "module"));
    Token name = lexer_.Take();
    if (name.kind != TokKind::kString) {
      return Error("expected module name string");
    }
    module_ = std::make_unique<Module>(name.text);
    while (lexer_.Peek().kind != TokKind::kEof) {
      const Token& tok = lexer_.Peek();
      if (tok.kind == TokKind::kLocal) {
        SVA_RETURN_IF_ERROR(ParseTypeDecl());
      } else if (tok.kind == TokKind::kIdent && tok.text == "metapool") {
        SVA_RETURN_IF_ERROR(ParseMetapoolDecl());
      } else if (tok.kind == TokKind::kIdent && tok.text == "targetset") {
        SVA_RETURN_IF_ERROR(ParseTargetSet());
      } else if (tok.kind == TokKind::kIdent &&
                 (tok.text == "global" || tok.text == "extern")) {
        SVA_RETURN_IF_ERROR(ParseGlobal());
      } else if (tok.kind == TokKind::kIdent && tok.text == "declare") {
        SVA_RETURN_IF_ERROR(ParseDeclare());
      } else if (tok.kind == TokKind::kIdent && tok.text == "define") {
        SVA_RETURN_IF_ERROR(ParseDefine());
      } else if (tok.kind == TokKind::kIdent && tok.text == "assert_signature") {
        SVA_RETURN_IF_ERROR(ParseSignatureAssertion());
      } else {
        return Error(StrCat("unexpected token '", tok.text, "' at top level"));
      }
    }
    return std::move(module_);
  }

 private:
  Status Error(std::string msg) {
    return ParseError(StrCat("line ", lexer_.Peek().line, ": ", msg));
  }

  Status Expect(TokKind kind, const std::string& text = "") {
    Token tok = lexer_.Take();
    if (tok.kind != kind || (!text.empty() && tok.text != text)) {
      return ParseError(StrCat("line ", tok.line, ": expected '",
                               text.empty() ? "<token>" : text, "', got '",
                               tok.text, "'"));
    }
    return OkStatus();
  }

  bool ConsumeIf(TokKind kind, const std::string& text = "") {
    const Token& tok = lexer_.Peek();
    if (tok.kind == kind && (text.empty() || tok.text == text)) {
      lexer_.Take();
      return true;
    }
    return false;
  }

  // --- Types ---------------------------------------------------------------

  Result<const Type*> ParseType() {
    TypeContext& types = module_->types();
    const Type* base = nullptr;
    Token tok = lexer_.Take();
    if (tok.kind == TokKind::kIdent) {
      const std::string& t = tok.text;
      if (t == "void") {
        base = types.VoidTy();
      } else if (t == "i1") {
        base = types.I1();
      } else if (t == "i8") {
        base = types.I8();
      } else if (t == "i16") {
        base = types.I16();
      } else if (t == "i32") {
        base = types.I32();
      } else if (t == "i64") {
        base = types.I64();
      } else if (t == "f32") {
        base = types.F32();
      } else if (t == "f64") {
        base = types.F64();
      } else if (t == "opaque") {
        return ParseError(
            StrCat("line ", tok.line, ": 'opaque' only valid in type decls"));
      } else {
        return ParseError(
            StrCat("line ", tok.line, ": unknown type '", t, "'"));
      }
    } else if (tok.kind == TokKind::kLocal) {
      base = types.NamedStruct(tok.text);
    } else if (tok.kind == TokKind::kLBracket) {
      Token n = lexer_.Take();
      if (n.kind != TokKind::kInt) {
        return ParseError(StrCat("line ", n.line, ": expected array length"));
      }
      SVA_RETURN_IF_ERROR(Expect(TokKind::kIdent, "x"));
      SVA_ASSIGN_OR_RETURN(const Type* elem, ParseType());
      SVA_RETURN_IF_ERROR(Expect(TokKind::kRBracket));
      base = types.ArrayOf(elem, static_cast<uint64_t>(n.int_value));
    } else if (tok.kind == TokKind::kLBrace) {
      std::vector<const Type*> fields;
      if (!ConsumeIf(TokKind::kRBrace)) {
        while (true) {
          SVA_ASSIGN_OR_RETURN(const Type* f, ParseType());
          fields.push_back(f);
          if (ConsumeIf(TokKind::kRBrace)) {
            break;
          }
          SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
        }
      }
      base = types.Struct(fields);
    } else {
      return ParseError(
          StrCat("line ", tok.line, ": expected type, got '", tok.text, "'"));
    }
    // Function type suffix: TYPE ( params ) — only in type contexts where a
    // '(' directly follows (e.g. "i32 (i8*)*").
    if (lexer_.Peek().kind == TokKind::kLParen) {
      lexer_.Take();
      std::vector<const Type*> params;
      bool vararg = false;
      if (!ConsumeIf(TokKind::kRParen)) {
        while (true) {
          if (ConsumeIf(TokKind::kEllipsis)) {
            vararg = true;
            SVA_RETURN_IF_ERROR(Expect(TokKind::kRParen));
            break;
          }
          SVA_ASSIGN_OR_RETURN(const Type* p, ParseType());
          params.push_back(p);
          if (ConsumeIf(TokKind::kRParen)) {
            break;
          }
          SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
        }
      }
      base = types.FunctionTy(base, params, vararg);
    }
    while (ConsumeIf(TokKind::kStar)) {
      base = types.PointerTo(base);
    }
    return base;
  }

  // --- Top-level entities ----------------------------------------------------

  Status ParseTypeDecl() {
    Token name = lexer_.Take();  // %name
    SVA_RETURN_IF_ERROR(Expect(TokKind::kEquals));
    SVA_RETURN_IF_ERROR(Expect(TokKind::kIdent, "type"));
    if (ConsumeIf(TokKind::kIdent, "opaque")) {
      module_->types().NamedStruct(name.text);
      return OkStatus();
    }
    SVA_RETURN_IF_ERROR(Expect(TokKind::kLBrace));
    std::vector<const Type*> fields;
    if (!ConsumeIf(TokKind::kRBrace)) {
      while (true) {
        SVA_ASSIGN_OR_RETURN(const Type* f, ParseType());
        fields.push_back(f);
        if (ConsumeIf(TokKind::kRBrace)) {
          break;
        }
        SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
      }
    }
    module_->types().NamedStruct(name.text, fields);
    return OkStatus();
  }

  Status ParseMetapoolDecl() {
    lexer_.Take();  // 'metapool'
    Token name = lexer_.Take();
    if (name.kind != TokKind::kIdent) {
      return Error("expected metapool name");
    }
    MetapoolDecl& decl = module_->DeclareMetapool(name.text);
    MetapoolHandle(*module_, name.text);
    while (true) {
      if (ConsumeIf(TokKind::kIdent, "th")) {
        SVA_ASSIGN_OR_RETURN(const Type* elem, ParseType());
        decl.type_homogeneous = true;
        decl.element_type = elem;
      } else if (ConsumeIf(TokKind::kIdent, "complete")) {
        decl.complete = true;
      } else if (ConsumeIf(TokKind::kIdent, "user")) {
        decl.user_reachable = true;
      } else if (ConsumeIf(TokKind::kIdent, "classified")) {
        decl.classified = true;
      } else {
        break;
      }
    }
    return OkStatus();
  }

  Status ParseTargetSet() {
    lexer_.Take();  // 'targetset'
    Token idx = lexer_.Take();
    if (idx.kind != TokKind::kInt) {
      return Error("expected target set index");
    }
    SVA_RETURN_IF_ERROR(Expect(TokKind::kEquals));
    std::vector<std::string> names;
    while (lexer_.Peek().kind == TokKind::kGlobal) {
      names.push_back(lexer_.Take().text);
    }
    uint64_t assigned = module_->AddTargetSet(std::move(names));
    if (assigned != static_cast<uint64_t>(idx.int_value)) {
      return Error("target sets must appear in index order");
    }
    return OkStatus();
  }

  Status ParseGlobal() {
    bool is_external = ConsumeIf(TokKind::kIdent, "extern");
    SVA_RETURN_IF_ERROR(Expect(TokKind::kIdent, "global"));
    Token name = lexer_.Take();
    if (name.kind != TokKind::kGlobal) {
      return Error("expected @name for global");
    }
    SVA_RETURN_IF_ERROR(Expect(TokKind::kColon));
    SVA_ASSIGN_OR_RETURN(const Type* vt, ParseType());
    GlobalVariable* gv = module_->CreateGlobal(name.text, vt, is_external);
    if (ConsumeIf(TokKind::kEquals)) {
      Token init = lexer_.Take();
      if (init.kind != TokKind::kInt) {
        return Error("expected integer initializer");
      }
      gv->set_int_initializer(static_cast<uint64_t>(init.int_value));
    }
    if (lexer_.Peek().kind == TokKind::kAnnotation) {
      module_->AnnotateValue(gv, lexer_.Take().text);
    }
    return OkStatus();
  }

  Status ParseDeclare() {
    lexer_.Take();  // 'declare'
    SVA_ASSIGN_OR_RETURN(const Type* ret, ParseType());
    Token name = lexer_.Take();
    if (name.kind != TokKind::kGlobal) {
      return Error("expected @name in declare");
    }
    SVA_RETURN_IF_ERROR(Expect(TokKind::kLParen));
    std::vector<const Type*> params;
    bool vararg = false;
    if (!ConsumeIf(TokKind::kRParen)) {
      while (true) {
        if (ConsumeIf(TokKind::kEllipsis)) {
          vararg = true;
          SVA_RETURN_IF_ERROR(Expect(TokKind::kRParen));
          break;
        }
        SVA_ASSIGN_OR_RETURN(const Type* p, ParseType());
        params.push_back(p);
        if (ConsumeIf(TokKind::kRParen)) {
          break;
        }
        SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
      }
    }
    const FunctionType* ft =
        module_->types().FunctionTy(ret, params, vararg);
    module_->GetOrDeclareFunction(name.text, ft);
    return OkStatus();
  }

  Status ParseSignatureAssertion() {
    lexer_.Take();  // 'assert_signature'
    // Recorded per call instruction during function parsing via the
    // "!sig" annotation; the standalone form is accepted and ignored.
    return OkStatus();
  }

  // --- Function bodies -------------------------------------------------------

  Status ParseDefine() {
    lexer_.Take();  // 'define'
    SVA_ASSIGN_OR_RETURN(const Type* ret, ParseType());
    Token name = lexer_.Take();
    if (name.kind != TokKind::kGlobal) {
      return Error("expected @name in define");
    }
    SVA_RETURN_IF_ERROR(Expect(TokKind::kLParen));
    std::vector<const Type*> params;
    std::vector<std::string> param_names;
    std::vector<std::string> param_annotations;
    if (!ConsumeIf(TokKind::kRParen)) {
      while (true) {
        SVA_ASSIGN_OR_RETURN(const Type* p, ParseType());
        Token pn = lexer_.Take();
        if (pn.kind != TokKind::kLocal) {
          return Error("expected %name for parameter");
        }
        params.push_back(p);
        param_names.push_back(pn.text);
        if (lexer_.Peek().kind == TokKind::kAnnotation) {
          param_annotations.push_back(lexer_.Take().text);
        } else {
          param_annotations.emplace_back();
        }
        if (ConsumeIf(TokKind::kRParen)) {
          break;
        }
        SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
      }
    }
    const FunctionType* ft = module_->types().FunctionTy(ret, params, false);
    Function* fn = module_->GetFunction(name.text);
    if (fn != nullptr) {
      if (!fn->is_declaration()) {
        return Error(StrCat("redefinition of @", name.text));
      }
      if (fn->function_type() != ft) {
        return Error(StrCat("type mismatch redefining @", name.text));
      }
      fn->set_is_declaration(false);
      for (size_t i = 0; i < param_names.size(); ++i) {
        fn->arg(i)->set_name(param_names[i]);
      }
    } else {
      fn = module_->CreateFunction(name.text, ft, /*is_declaration=*/false,
                                   param_names);
    }
    locals_.clear();
    blocks_.clear();
    fixups_.clear();
    fn_ = fn;
    for (size_t i = 0; i < fn->num_args(); ++i) {
      locals_[param_names[i]] = fn->arg(i);
      if (!param_annotations[i].empty()) {
        module_->AnnotateValue(fn->arg(i), param_annotations[i]);
      }
    }
    SVA_RETURN_IF_ERROR(Expect(TokKind::kLBrace));
    BasicBlock* current = nullptr;
    while (!ConsumeIf(TokKind::kRBrace)) {
      const Token& tok = lexer_.Peek();
      if (tok.kind == TokKind::kEof) {
        return Error("unexpected EOF in function body");
      }
      // A block label: IDENT ':'
      if (tok.kind == TokKind::kIdent && IsLabel()) {
        Token label = lexer_.Take();
        lexer_.Take();  // ':'
        current = GetBlock(label.text);
        continue;
      }
      if (current == nullptr) {
        return Error("instruction before first block label");
      }
      SVA_RETURN_IF_ERROR(ParseInstruction(current));
    }
    if (fn->blocks().empty()) {
      return Error(StrCat("function @", name.text, " has an empty body"));
    }
    // Resolve forward references.
    for (const Fixup& fx : fixups_) {
      auto it = locals_.find(fx.name);
      if (it == locals_.end()) {
        return ParseError(StrCat("line ", fx.line, ": undefined value %",
                                 fx.name));
      }
      if (fx.phi_index >= 0) {
        static_cast<PhiInst*>(fx.inst)->set_incoming_value(
            static_cast<size_t>(fx.phi_index), it->second);
      } else {
        fx.inst->set_operand(fx.operand_index, it->second);
      }
    }
    fn_ = nullptr;
    return OkStatus();
  }

  // True if the upcoming tokens are "IDENT :". The lexer has one-token
  // lookahead, so labels are detected by peeking the raw text: labels in our
  // printer output are always at line starts followed by ':'. We implement
  // two-token lookahead by saving/restoring.
  bool IsLabel() {
    // One-token lookahead is insufficient; cheat by copying the lexer.
    Lexer saved = lexer_;
    Token first = lexer_.Take();
    bool is_label = first.kind == TokKind::kIdent &&
                    lexer_.Peek().kind == TokKind::kColon;
    lexer_ = saved;
    return is_label;
  }

  BasicBlock* GetBlock(const std::string& name) {
    auto it = blocks_.find(name);
    if (it != blocks_.end()) {
      return it->second;
    }
    BasicBlock* bb = fn_->CreateBlock(name);
    blocks_[name] = bb;
    return bb;
  }

  // Parses "label %name" and returns the block.
  Result<BasicBlock*> ParseLabelRef() {
    SVA_RETURN_IF_ERROR(Expect(TokKind::kIdent, "label"));
    Token name = lexer_.Take();
    if (name.kind != TokKind::kLocal) {
      return ParseError(StrCat("line ", name.line, ": expected %block"));
    }
    return GetBlock(name.text);
  }

  // Parses a value reference of the given type. Returns nullptr when the
  // reference is a forward local reference; in that case *forward_name is set.
  Result<Value*> ParseValueRef(const Type* type, std::string* forward_name) {
    Token tok = lexer_.Take();
    switch (tok.kind) {
      case TokKind::kLocal: {
        auto it = locals_.find(tok.text);
        if (it != locals_.end()) {
          return it->second;
        }
        *forward_name = tok.text;
        return static_cast<Value*>(nullptr);
      }
      case TokKind::kGlobal: {
        if (GlobalVariable* gv = module_->GetGlobal(tok.text)) {
          return static_cast<Value*>(gv);
        }
        if (Function* f = module_->GetFunction(tok.text)) {
          return static_cast<Value*>(f);
        }
        // Intrinsics may be referenced without explicit declaration.
        Intrinsic which = LookupIntrinsic(tok.text);
        if (which != Intrinsic::kNone) {
          return static_cast<Value*>(DeclareIntrinsic(*module_, which));
        }
        // Forward reference to a function defined later in the module: the
        // typed reference tells us its signature, so declare it now (the
        // later `define` fills the body in).
        if (type->IsPointer()) {
          const Type* pointee =
              static_cast<const PointerType*>(type)->pointee();
          if (pointee->IsFunction()) {
            return static_cast<Value*>(module_->GetOrDeclareFunction(
                tok.text, static_cast<const FunctionType*>(pointee)));
          }
        }
        return ParseError(
            StrCat("line ", tok.line, ": unknown global @", tok.text));
      }
      case TokKind::kInt: {
        if (!type->IsInt()) {
          return ParseError(StrCat("line ", tok.line,
                                   ": integer literal for non-integer type ",
                                   type->ToString()));
        }
        return static_cast<Value*>(
            module_->GetInt(static_cast<const IntType*>(type),
                            static_cast<uint64_t>(tok.int_value)));
      }
      case TokKind::kFloat: {
        if (!type->IsFloat()) {
          return ParseError(
              StrCat("line ", tok.line, ": float literal for non-float type"));
        }
        return static_cast<Value*>(module_->GetFloat(
            static_cast<const FloatType*>(type), tok.float_value));
      }
      case TokKind::kIdent: {
        if (tok.text == "null") {
          if (!type->IsPointer()) {
            return ParseError(
                StrCat("line ", tok.line, ": null for non-pointer type"));
          }
          return static_cast<Value*>(
              module_->GetNull(static_cast<const PointerType*>(type)));
        }
        if (tok.text == "undef") {
          return static_cast<Value*>(module_->GetUndef(type));
        }
        return ParseError(
            StrCat("line ", tok.line, ": unexpected value '", tok.text, "'"));
      }
      default:
        return ParseError(
            StrCat("line ", tok.line, ": expected value, got '", tok.text,
                   "'"));
    }
  }

  // Parses "TYPE VALUE" and returns the value (or records a fixup slot by
  // returning nullptr; caller must then call NoteFixup with the slot).
  struct TypedRef {
    const Type* type = nullptr;
    Value* value = nullptr;     // nullptr when forward
    std::string forward_name;   // non-empty when forward
    int line = 0;
  };
  Result<TypedRef> ParseTypedRef() {
    TypedRef ref;
    ref.line = lexer_.Peek().line;
    SVA_ASSIGN_OR_RETURN(ref.type, ParseType());
    SVA_ASSIGN_OR_RETURN(ref.value, ParseValueRef(ref.type, &ref.forward_name));
    return ref;
  }

  // Placeholder used for forward references until fixup resolution. Typed as
  // undef of the referenced type.
  Value* Placeholder(const Type* type) { return module_->GetUndef(type); }

  void NoteFixup(Instruction* inst, size_t operand_index,
                 const std::string& name, int line, int phi_index = -1) {
    Fixup fx;
    fx.inst = inst;
    fx.operand_index = operand_index;
    fx.phi_index = phi_index;
    fx.name = name;
    fx.line = line;
    fixups_.push_back(fx);
  }

  Status ParseInstruction(BasicBlock* bb) {
    std::string result_name;
    if (lexer_.Peek().kind == TokKind::kLocal) {
      result_name = lexer_.Take().text;
      SVA_RETURN_IF_ERROR(Expect(TokKind::kEquals));
    }
    Token op = lexer_.Take();
    if (op.kind != TokKind::kIdent) {
      return Error(StrCat("expected opcode, got '", op.text, "'"));
    }
    IRBuilder b(*module_);
    b.SetInsertPoint(bb);
    TypeContext& types = module_->types();
    Value* result = nullptr;
    const std::string& o = op.text;

    auto parse_typed_operand = [&](std::vector<TypedRef>& refs) -> Status {
      SVA_ASSIGN_OR_RETURN(TypedRef r, ParseTypedRef());
      refs.push_back(r);
      return OkStatus();
    };

    static const std::map<std::string, Opcode> kBinaryOps = {
        {"add", Opcode::kAdd},   {"sub", Opcode::kSub},
        {"mul", Opcode::kMul},   {"udiv", Opcode::kUDiv},
        {"sdiv", Opcode::kSDiv}, {"urem", Opcode::kURem},
        {"srem", Opcode::kSRem}, {"and", Opcode::kAnd},
        {"or", Opcode::kOr},     {"xor", Opcode::kXor},
        {"shl", Opcode::kShl},   {"lshr", Opcode::kLShr},
        {"ashr", Opcode::kAShr}, {"fadd", Opcode::kFAdd},
        {"fsub", Opcode::kFSub}, {"fmul", Opcode::kFMul},
        {"fdiv", Opcode::kFDiv}};
    static const std::map<std::string, Opcode> kCastOps = {
        {"trunc", Opcode::kTrunc},       {"zext", Opcode::kZExt},
        {"sext", Opcode::kSExt},         {"bitcast", Opcode::kBitcast},
        {"ptrtoint", Opcode::kPtrToInt}, {"inttoptr", Opcode::kIntToPtr},
        {"sitofp", Opcode::kSIToFP},     {"fptosi", Opcode::kFPToSI}};
    static const std::map<std::string, CmpPred> kPreds = {
        {"eq", CmpPred::kEq},   {"ne", CmpPred::kNe},
        {"ugt", CmpPred::kUGt}, {"uge", CmpPred::kUGe},
        {"ult", CmpPred::kULt}, {"ule", CmpPred::kULe},
        {"sgt", CmpPred::kSGt}, {"sge", CmpPred::kSGe},
        {"slt", CmpPred::kSLt}, {"sle", CmpPred::kSLe}};

    if (auto bit = kBinaryOps.find(o); bit != kBinaryOps.end()) {
      SVA_ASSIGN_OR_RETURN(const Type* type, ParseType());
      std::string fwd1;
      int line1 = lexer_.Peek().line;
      SVA_ASSIGN_OR_RETURN(Value* lhs, ParseValueRef(type, &fwd1));
      SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
      std::string fwd2;
      int line2 = lexer_.Peek().line;
      SVA_ASSIGN_OR_RETURN(Value* rhs, ParseValueRef(type, &fwd2));
      result = b.CreateBinary(bit->second, lhs ? lhs : Placeholder(type),
                              rhs ? rhs : Placeholder(type), result_name);
      auto* inst = static_cast<Instruction*>(result);
      if (lhs == nullptr) {
        NoteFixup(inst, 0, fwd1, line1);
      }
      if (rhs == nullptr) {
        NoteFixup(inst, 1, fwd2, line2);
      }
    } else if (auto cit = kCastOps.find(o); cit != kCastOps.end()) {
      SVA_ASSIGN_OR_RETURN(TypedRef src, ParseTypedRef());
      SVA_RETURN_IF_ERROR(Expect(TokKind::kIdent, "to"));
      SVA_ASSIGN_OR_RETURN(const Type* dst, ParseType());
      result = b.CreateCast(cit->second, Resolve(src), dst, result_name);
      MaybeFixup(static_cast<Instruction*>(result), 0, src);
    } else if (o == "icmp" || o == "fcmp") {
      Token pred = lexer_.Take();
      auto pit = kPreds.find(pred.text);
      if (pit == kPreds.end()) {
        return Error(StrCat("bad compare predicate '", pred.text, "'"));
      }
      SVA_ASSIGN_OR_RETURN(const Type* type, ParseType());
      std::string fwd1;
      int line1 = lexer_.Peek().line;
      SVA_ASSIGN_OR_RETURN(Value* lhs, ParseValueRef(type, &fwd1));
      SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
      std::string fwd2;
      int line2 = lexer_.Peek().line;
      SVA_ASSIGN_OR_RETURN(Value* rhs, ParseValueRef(type, &fwd2));
      result = o == "icmp"
                   ? b.CreateICmp(pit->second, lhs ? lhs : Placeholder(type),
                                  rhs ? rhs : Placeholder(type), result_name)
                   : b.CreateFCmp(pit->second, lhs ? lhs : Placeholder(type),
                                  rhs ? rhs : Placeholder(type), result_name);
      auto* inst = static_cast<Instruction*>(result);
      if (lhs == nullptr) {
        NoteFixup(inst, 0, fwd1, line1);
      }
      if (rhs == nullptr) {
        NoteFixup(inst, 1, fwd2, line2);
      }
    } else if (o == "select") {
      SVA_ASSIGN_OR_RETURN(TypedRef cond, ParseTypedRef());
      SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
      SVA_ASSIGN_OR_RETURN(TypedRef tval, ParseTypedRef());
      SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
      SVA_ASSIGN_OR_RETURN(TypedRef fval, ParseTypedRef());
      result = b.CreateSelect(Resolve(cond), Resolve(tval), Resolve(fval),
                              result_name);
      auto* inst = static_cast<Instruction*>(result);
      MaybeFixup(inst, 0, cond);
      MaybeFixup(inst, 1, tval);
      MaybeFixup(inst, 2, fval);
    } else if (o == "alloca" || o == "malloc") {
      SVA_ASSIGN_OR_RETURN(const Type* allocated, ParseType());
      SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
      SVA_ASSIGN_OR_RETURN(TypedRef count, ParseTypedRef());
      result = o == "alloca"
                   ? b.CreateAlloca(allocated, Resolve(count), result_name)
                   : b.CreateMalloc(allocated, Resolve(count), result_name);
      MaybeFixup(static_cast<Instruction*>(result), 0, count);
    } else if (o == "free") {
      SVA_ASSIGN_OR_RETURN(TypedRef ptr, ParseTypedRef());
      b.CreateFree(Resolve(ptr));
      Instruction* inst = bb->back();
      MaybeFixup(inst, 0, ptr);
    } else if (o == "load") {
      SVA_ASSIGN_OR_RETURN(const Type* result_type, ParseType());
      SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
      SVA_ASSIGN_OR_RETURN(TypedRef ptr, ParseTypedRef());
      if (!ptr.type->IsPointer() ||
          static_cast<const PointerType*>(ptr.type)->pointee() != result_type) {
        return Error("load pointer type does not match result type");
      }
      result = b.CreateLoad(ResolveTyped(ptr), result_name);
      MaybeFixup(static_cast<Instruction*>(result), 0, ptr);
    } else if (o == "store") {
      SVA_ASSIGN_OR_RETURN(TypedRef value, ParseTypedRef());
      SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
      SVA_ASSIGN_OR_RETURN(TypedRef ptr, ParseTypedRef());
      b.CreateStore(Resolve(value), ResolveTyped(ptr));
      Instruction* inst = bb->back();
      MaybeFixup(inst, 0, value);
      MaybeFixup(inst, 1, ptr);
    } else if (o == "getelementptr") {
      SVA_ASSIGN_OR_RETURN(TypedRef base, ParseTypedRef());
      if (!base.type->IsPointer()) {
        return Error("getelementptr base is not a pointer");
      }
      std::vector<TypedRef> indices;
      while (ConsumeIf(TokKind::kComma)) {
        SVA_RETURN_IF_ERROR(parse_typed_operand(indices));
      }
      std::vector<Value*> index_values;
      index_values.reserve(indices.size());
      for (const TypedRef& r : indices) {
        index_values.push_back(Resolve(r));
      }
      Result<const Type*> indexed = GepIndexedType(
          static_cast<const PointerType*>(base.type)->pointee(), index_values);
      if (!indexed.ok()) {
        return Error(indexed.status().message());
      }
      result = b.CreateGEP(ResolveTyped(base), index_values, result_name);
      auto* inst = static_cast<Instruction*>(result);
      MaybeFixup(inst, 0, base);
      for (size_t i = 0; i < indices.size(); ++i) {
        MaybeFixup(inst, i + 1, indices[i]);
      }
    } else if (o == "atomiclis") {
      SVA_ASSIGN_OR_RETURN(TypedRef ptr, ParseTypedRef());
      if (!ptr.type->IsPointer()) {
        return Error("atomiclis operand is not a pointer");
      }
      SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
      const Type* elem =
          static_cast<const PointerType*>(ptr.type)->pointee();
      std::string fwd;
      int line = lexer_.Peek().line;
      SVA_ASSIGN_OR_RETURN(Value* delta, ParseValueRef(elem, &fwd));
      result = b.CreateAtomicLIS(ResolveTyped(ptr),
                                 delta ? delta : Placeholder(elem),
                                 result_name);
      auto* inst = static_cast<Instruction*>(result);
      MaybeFixup(inst, 0, ptr);
      if (delta == nullptr) {
        NoteFixup(inst, 1, fwd, line);
      }
    } else if (o == "cmpxchg") {
      SVA_ASSIGN_OR_RETURN(TypedRef ptr, ParseTypedRef());
      if (!ptr.type->IsPointer()) {
        return Error("cmpxchg operand is not a pointer");
      }
      const Type* elem =
          static_cast<const PointerType*>(ptr.type)->pointee();
      SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
      std::string fwd1;
      int line1 = lexer_.Peek().line;
      SVA_ASSIGN_OR_RETURN(Value* expected, ParseValueRef(elem, &fwd1));
      SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
      std::string fwd2;
      int line2 = lexer_.Peek().line;
      SVA_ASSIGN_OR_RETURN(Value* desired, ParseValueRef(elem, &fwd2));
      result = b.CreateCmpXchg(ResolveTyped(ptr),
                               expected ? expected : Placeholder(elem),
                               desired ? desired : Placeholder(elem),
                               result_name);
      auto* inst = static_cast<Instruction*>(result);
      MaybeFixup(inst, 0, ptr);
      if (expected == nullptr) {
        NoteFixup(inst, 1, fwd1, line1);
      }
      if (desired == nullptr) {
        NoteFixup(inst, 2, fwd2, line2);
      }
    } else if (o == "writebarrier") {
      b.CreateWriteBarrier();
    } else if (o == "call") {
      SVA_ASSIGN_OR_RETURN(const Type* ret, ParseType());
      Token callee_tok = lexer_.Take();
      Value* callee = nullptr;
      std::string callee_fwd;
      std::string forward_call_name;
      int callee_line = callee_tok.line;
      if (callee_tok.kind == TokKind::kGlobal) {
        callee = module_->GetFunction(callee_tok.text);
        if (callee == nullptr) {
          Intrinsic which = LookupIntrinsic(callee_tok.text);
          if (which != Intrinsic::kNone) {
            callee = DeclareIntrinsic(*module_, which);
          }
        }
        // Forward direct call: reconstruct the signature from the call and
        // declare; a later define must match it.
        if (callee == nullptr) {
          forward_call_name = callee_tok.text;
        }
      } else if (callee_tok.kind == TokKind::kLocal) {
        auto it = locals_.find(callee_tok.text);
        if (it != locals_.end()) {
          callee = it->second;
        } else {
          callee_fwd = callee_tok.text;
        }
      } else {
        return Error("expected callee");
      }
      SVA_RETURN_IF_ERROR(Expect(TokKind::kLParen));
      std::vector<TypedRef> args;
      if (!ConsumeIf(TokKind::kRParen)) {
        while (true) {
          SVA_RETURN_IF_ERROR(parse_typed_operand(args));
          if (ConsumeIf(TokKind::kRParen)) {
            break;
          }
          SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
        }
      }
      std::vector<Value*> arg_values;
      std::vector<const Type*> arg_types;
      arg_values.reserve(args.size());
      for (const TypedRef& r : args) {
        arg_values.push_back(Resolve(r));
        arg_types.push_back(r.type);
      }
      Value* resolved_callee = callee;
      if (resolved_callee == nullptr && !forward_call_name.empty()) {
        // Forward direct call: declare with the reconstructed signature.
        resolved_callee = module_->GetOrDeclareFunction(
            forward_call_name, types.FunctionTy(ret, arg_types, false));
      }
      if (resolved_callee == nullptr) {
        // Forward indirect callee: synthesize a placeholder of fn-ptr type.
        const FunctionType* ft = types.FunctionTy(ret, arg_types, false);
        resolved_callee = Placeholder(types.PointerTo(ft));
      }
      result = b.CreateCall(resolved_callee, arg_values, result_name);
      auto* inst = static_cast<Instruction*>(result);
      if (callee == nullptr && !callee_fwd.empty()) {
        NoteFixup(inst, 0, callee_fwd, callee_line);
      }
      for (size_t i = 0; i < args.size(); ++i) {
        MaybeFixup(inst, i + 1, args[i]);
      }
      if (result->type()->IsVoid()) {
        result = nullptr;
      }
    } else if (o == "phi") {
      SVA_ASSIGN_OR_RETURN(const Type* type, ParseType());
      PhiInst* phi = b.CreatePhi(type, result_name);
      int incoming = 0;
      while (true) {
        SVA_RETURN_IF_ERROR(Expect(TokKind::kLBracket));
        std::string fwd;
        int line = lexer_.Peek().line;
        SVA_ASSIGN_OR_RETURN(Value* v, ParseValueRef(type, &fwd));
        SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
        Token block_name = lexer_.Take();
        if (block_name.kind != TokKind::kLocal) {
          return Error("expected %block in phi");
        }
        SVA_RETURN_IF_ERROR(Expect(TokKind::kRBracket));
        phi->AddIncoming(v ? v : Placeholder(type),
                         GetBlock(block_name.text));
        if (v == nullptr) {
          NoteFixup(phi, 0, fwd, line, incoming);
        }
        ++incoming;
        if (!ConsumeIf(TokKind::kComma)) {
          break;
        }
      }
      result = phi;
    } else if (o == "br") {
      if (lexer_.Peek().kind == TokKind::kIdent &&
          lexer_.Peek().text == "label") {
        SVA_ASSIGN_OR_RETURN(BasicBlock* target, ParseLabelRef());
        b.CreateBr(target);
      } else {
        SVA_RETURN_IF_ERROR(Expect(TokKind::kIdent, "i1"));
        std::string fwd;
        int line = lexer_.Peek().line;
        SVA_ASSIGN_OR_RETURN(Value* cond, ParseValueRef(types.I1(), &fwd));
        SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
        SVA_ASSIGN_OR_RETURN(BasicBlock* t, ParseLabelRef());
        SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
        SVA_ASSIGN_OR_RETURN(BasicBlock* f, ParseLabelRef());
        b.CreateCondBr(cond ? cond : Placeholder(types.I1()), t, f);
        if (cond == nullptr) {
          NoteFixup(bb->back(), 0, fwd, line);
        }
      }
    } else if (o == "switch") {
      SVA_ASSIGN_OR_RETURN(TypedRef value, ParseTypedRef());
      SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
      SVA_ASSIGN_OR_RETURN(BasicBlock* def, ParseLabelRef());
      SwitchInst* sw = b.CreateSwitch(Resolve(value), def);
      MaybeFixup(sw, 0, value);
      while (ConsumeIf(TokKind::kComma)) {
        SVA_RETURN_IF_ERROR(Expect(TokKind::kLBracket));
        Token cv = lexer_.Take();
        if (cv.kind != TokKind::kInt) {
          return Error("expected case value");
        }
        SVA_RETURN_IF_ERROR(Expect(TokKind::kComma));
        SVA_ASSIGN_OR_RETURN(BasicBlock* target, ParseLabelRef());
        SVA_RETURN_IF_ERROR(Expect(TokKind::kRBracket));
        sw->AddCase(static_cast<uint64_t>(cv.int_value), target);
      }
    } else if (o == "ret") {
      if (ConsumeIf(TokKind::kIdent, "void")) {
        b.CreateRetVoid();
      } else {
        SVA_ASSIGN_OR_RETURN(TypedRef value, ParseTypedRef());
        b.CreateRet(Resolve(value));
        MaybeFixup(bb->back(), 0, value);
      }
    } else if (o == "unreachable") {
      b.CreateUnreachable();
    } else {
      return Error(StrCat("unknown opcode '", o, "'"));
    }

    // Optional metapool annotation on the result value.
    if (lexer_.Peek().kind == TokKind::kAnnotation) {
      Token ann = lexer_.Take();
      Instruction* inst = bb->back();
      if (ann.text == "sig") {
        module_->AddSignatureAssertion(inst);
      } else {
        module_->AnnotateValue(inst, ann.text);
      }
      // A second annotation may follow (e.g. "!MP1 !sig").
      if (lexer_.Peek().kind == TokKind::kAnnotation) {
        Token ann2 = lexer_.Take();
        if (ann2.text == "sig") {
          module_->AddSignatureAssertion(inst);
        } else {
          module_->AnnotateValue(inst, ann2.text);
        }
      }
    }

    if (result != nullptr && !result->type()->IsVoid() &&
        !result_name.empty()) {
      locals_[result_name] = result;
    }
    return OkStatus();
  }

  Value* Resolve(const TypedRef& ref) {
    return ref.value != nullptr ? ref.value : Placeholder(ref.type);
  }
  // Same but asserts the slot is a pointer type (load/store/gep bases).
  Value* ResolveTyped(const TypedRef& ref) { return Resolve(ref); }

  void MaybeFixup(Instruction* inst, size_t operand_index,
                  const TypedRef& ref) {
    if (ref.value == nullptr) {
      NoteFixup(inst, operand_index, ref.forward_name, ref.line);
    }
  }

  Lexer lexer_;
  std::unique_ptr<Module> module_;
  Function* fn_ = nullptr;
  std::map<std::string, Value*> locals_;
  std::map<std::string, BasicBlock*> blocks_;
  std::vector<Fixup> fixups_;
};

}  // namespace

Result<std::unique_ptr<Module>> ParseModule(std::string_view text) {
  Parser parser(text);
  return parser.Parse();
}

}  // namespace sva::vir
