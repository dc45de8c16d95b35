#include "src/vir/bytecode.h"

#include <algorithm>
#include <unordered_map>

#include <cstring>
#include <map>

#include "src/support/strings.h"
#include "src/vir/builder.h"
#include "src/vir/instructions.h"
#include "src/vir/intrinsics.h"

namespace sva::vir {
namespace {

constexpr uint8_t kMagic[6] = {'S', 'V', 'A', 'B', 'C', 1};

// Operand reference tags.
enum class RefTag : uint8_t {
  kLocal = 0,   // argument or instruction result: id + type idx
  kInt = 1,     // type idx + raw bits
  kFloat = 2,   // type idx + IEEE bits
  kNull = 3,    // pointer type idx
  kUndef = 4,   // type idx
  kGlobal = 5,  // name
  kFunc = 6,    // name
};

class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(v); }
  void VarU64(uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(static_cast<uint8_t>(v));
  }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<uint8_t>(bits >> (8 * i)));
    }
  }
  void Str(const std::string& s) {
    VarU64(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }
  std::vector<uint8_t> Take() { return std::move(out_); }

 private:
  std::vector<uint8_t> out_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& data) : data_(data) {}

  Result<uint8_t> U8() {
    if (pos_ >= data_.size()) {
      return ParseError("bytecode truncated (u8)");
    }
    return data_[pos_++];
  }
  Result<uint64_t> VarU64() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size() || shift > 63) {
        return ParseError("bytecode truncated (varint)");
      }
      uint8_t b = data_[pos_++];
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        break;
      }
      shift += 7;
    }
    return v;
  }
  Result<double> F64() {
    if (pos_ + 8 > data_.size()) {
      return ParseError("bytecode truncated (f64)");
    }
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    }
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  Result<std::string> Str() {
    SVA_ASSIGN_OR_RETURN(uint64_t len, VarU64());
    if (pos_ + len > data_.size()) {
      return ParseError("bytecode truncated (string)");
    }
    std::string s(data_.begin() + static_cast<ptrdiff_t>(pos_),
                  data_.begin() + static_cast<ptrdiff_t>(pos_ + len));
    pos_ += len;
    return s;
  }
  bool AtEnd() const { return pos_ >= data_.size(); }

 private:
  const std::vector<uint8_t>& data_;
  size_t pos_ = 0;
};

// Assigns indexes to all types in the module. Children of non-named types
// are assigned before their parents; named struct bodies may reference any
// index (resolved in a second pass on read).
class TypeTable {
 public:
  uint32_t IndexOf(const Type* t) {
    auto it = index_.find(t);
    if (it != index_.end()) {
      return it->second;
    }
    // Named structs are pre-assigned to break recursion.
    if (t->IsStruct() &&
        !static_cast<const StructType*>(t)->name().empty()) {
      uint32_t idx = Assign(t);
      for (const Type* f : static_cast<const StructType*>(t)->fields()) {
        IndexOf(f);
      }
      return idx;
    }
    switch (t->kind()) {
      case TypeKind::kPointer:
        IndexOf(static_cast<const PointerType*>(t)->pointee());
        break;
      case TypeKind::kArray:
        IndexOf(static_cast<const ArrayType*>(t)->element());
        break;
      case TypeKind::kStruct:
        for (const Type* f : static_cast<const StructType*>(t)->fields()) {
          IndexOf(f);
        }
        break;
      case TypeKind::kFunction: {
        const auto* ft = static_cast<const FunctionType*>(t);
        IndexOf(ft->return_type());
        for (const Type* p : ft->params()) {
          IndexOf(p);
        }
        break;
      }
      default:
        break;
    }
    return Assign(t);
  }

  const std::vector<const Type*>& order() const { return order_; }

 private:
  uint32_t Assign(const Type* t) {
    auto it = index_.find(t);
    if (it != index_.end()) {
      return it->second;
    }
    uint32_t idx = static_cast<uint32_t>(order_.size());
    index_[t] = idx;
    order_.push_back(t);
    return idx;
  }

  std::unordered_map<const Type*, uint32_t> index_;
  std::vector<const Type*> order_;
};

class Writer {
 public:
  explicit Writer(const Module& module) : module_(module) {}

  std::vector<uint8_t> Write() {
    for (uint8_t b : kMagic) {
      w_.U8(b);
    }
    w_.Str(module_.name());
    CollectTypes();
    WriteTypeTable();
    WriteMetapools();
    WriteGlobals();
    WriteFunctionSignatures();
    for (const auto& fn : module_.functions()) {
      if (!fn->is_declaration()) {
        WriteFunctionBody(*fn);
      }
    }
    return w_.Take();
  }

 private:
  void CollectTypes() {
    for (const StructType* st : module_.types().named_structs()) {
      types_.IndexOf(st);
    }
    for (const auto& gv : module_.globals()) {
      types_.IndexOf(gv->value_type());
    }
    for (const auto& fn : module_.functions()) {
      types_.IndexOf(fn->function_type());
      for (const auto& bb : fn->blocks()) {
        for (const auto& inst : bb->instructions()) {
          types_.IndexOf(inst->type());
          for (const Value* op : inst->operands()) {
            types_.IndexOf(op->type());
          }
          if (const auto* a = dynamic_cast<const AllocaInst*>(inst.get())) {
            types_.IndexOf(a->allocated_type());
          } else if (const auto* m =
                         dynamic_cast<const MallocInst*>(inst.get())) {
            types_.IndexOf(m->allocated_type());
          } else if (const auto* phi =
                         dynamic_cast<const PhiInst*>(inst.get())) {
            for (size_t i = 0; i < phi->num_incoming(); ++i) {
              types_.IndexOf(phi->incoming_value(i)->type());
            }
          }
        }
      }
    }
    for (const auto& [name, decl] : module_.metapools()) {
      if (decl.element_type != nullptr) {
        types_.IndexOf(decl.element_type);
      }
    }
  }

  void WriteTypeTable() {
    // The table may grow while we serialize (it should not, since
    // CollectTypes visited everything), so snapshot the size first.
    const auto& order = types_.order();
    w_.VarU64(order.size());
    for (const Type* t : order) {
      w_.U8(static_cast<uint8_t>(t->kind()));
      switch (t->kind()) {
        case TypeKind::kVoid:
          break;
        case TypeKind::kInt:
          w_.VarU64(static_cast<const IntType*>(t)->bits());
          break;
        case TypeKind::kFloat:
          w_.VarU64(static_cast<const FloatType*>(t)->bits());
          break;
        case TypeKind::kPointer:
          w_.VarU64(types_.IndexOf(static_cast<const PointerType*>(t)->pointee()));
          break;
        case TypeKind::kArray: {
          const auto* at = static_cast<const ArrayType*>(t);
          w_.VarU64(types_.IndexOf(at->element()));
          w_.VarU64(at->length());
          break;
        }
        case TypeKind::kStruct: {
          const auto* st = static_cast<const StructType*>(t);
          w_.Str(st->name());
          w_.U8(st->IsOpaque() ? 1 : 0);
          if (!st->IsOpaque()) {
            w_.VarU64(st->fields().size());
            for (const Type* f : st->fields()) {
              w_.VarU64(types_.IndexOf(f));
            }
          }
          break;
        }
        case TypeKind::kFunction: {
          const auto* ft = static_cast<const FunctionType*>(t);
          w_.VarU64(types_.IndexOf(ft->return_type()));
          w_.VarU64(ft->params().size());
          for (const Type* p : ft->params()) {
            w_.VarU64(types_.IndexOf(p));
          }
          w_.U8(ft->is_vararg() ? 1 : 0);
          break;
        }
      }
    }
  }

  void WriteMetapools() {
    w_.VarU64(module_.metapools().size());
    for (const auto& [name, decl] : module_.metapools()) {
      w_.Str(name);
      w_.U8((decl.type_homogeneous ? 1 : 0) | (decl.complete ? 2 : 0) |
            (decl.user_reachable ? 4 : 0) | (decl.classified ? 8 : 0));
      if (decl.type_homogeneous && decl.element_type != nullptr) {
        w_.U8(1);
        w_.VarU64(types_.IndexOf(decl.element_type));
      } else {
        w_.U8(0);
      }
    }
    w_.VarU64(module_.target_sets().size());
    for (const auto& set : module_.target_sets()) {
      w_.VarU64(set.size());
      for (const std::string& fn : set) {
        w_.Str(fn);
      }
    }
  }

  void WriteGlobals() {
    uint64_t count = 0;
    for (const auto& gv : module_.globals()) {
      if (!IsMetapoolHandle(gv.get())) {
        ++count;
      }
    }
    w_.VarU64(count);
    for (const auto& gv : module_.globals()) {
      if (IsMetapoolHandle(gv.get())) {
        continue;  // Recreated from metapool declarations on read.
      }
      w_.Str(gv->name());
      w_.VarU64(types_.IndexOf(gv->value_type()));
      w_.U8((gv->is_external() ? 1 : 0) |
            (gv->has_int_initializer() ? 2 : 0));
      if (gv->has_int_initializer()) {
        w_.VarU64(gv->int_initializer());
      }
      w_.Str(module_.MetapoolOf(gv.get()));
    }
  }

  void WriteFunctionSignatures() {
    w_.VarU64(module_.functions().size());
    for (const auto& fn : module_.functions()) {
      w_.Str(fn->name());
      w_.VarU64(types_.IndexOf(fn->function_type()));
      w_.U8(fn->is_declaration() ? 1 : 0);
    }
  }

  void WriteRef(const Value* v) {
    switch (v->value_kind()) {
      case ValueKind::kArgument:
      case ValueKind::kInstruction: {
        w_.U8(static_cast<uint8_t>(RefTag::kLocal));
        w_.VarU64(local_ids_.at(v));
        w_.VarU64(types_.IndexOf(v->type()));
        break;
      }
      case ValueKind::kConstantInt:
        w_.U8(static_cast<uint8_t>(RefTag::kInt));
        w_.VarU64(types_.IndexOf(v->type()));
        w_.VarU64(static_cast<const ConstantInt*>(v)->zext_value());
        break;
      case ValueKind::kConstantFloat:
        w_.U8(static_cast<uint8_t>(RefTag::kFloat));
        w_.VarU64(types_.IndexOf(v->type()));
        w_.F64(static_cast<const ConstantFloat*>(v)->value());
        break;
      case ValueKind::kConstantNull:
        w_.U8(static_cast<uint8_t>(RefTag::kNull));
        w_.VarU64(types_.IndexOf(v->type()));
        break;
      case ValueKind::kConstantUndef:
        w_.U8(static_cast<uint8_t>(RefTag::kUndef));
        w_.VarU64(types_.IndexOf(v->type()));
        break;
      case ValueKind::kGlobalVariable:
        w_.U8(static_cast<uint8_t>(RefTag::kGlobal));
        w_.Str(v->name());
        break;
      case ValueKind::kFunction:
        w_.U8(static_cast<uint8_t>(RefTag::kFunc));
        w_.Str(v->name());
        break;
    }
  }

  void WriteFunctionBody(const Function& fn) {
    w_.Str(fn.name());
    local_ids_.clear();
    block_ids_.clear();
    uint64_t next_id = 0;
    for (const auto& arg : fn.args()) {
      local_ids_[arg.get()] = next_id++;
    }
    uint64_t block_id = 0;
    for (const auto& bb : fn.blocks()) {
      block_ids_[bb.get()] = block_id++;
      for (const auto& inst : bb->instructions()) {
        local_ids_[inst.get()] = next_id++;
      }
    }

    for (const auto& arg : fn.args()) {
      w_.Str(arg->name());
      w_.Str(module_.MetapoolOf(arg.get()));
    }
    w_.VarU64(fn.blocks().size());
    for (const auto& bb : fn.blocks()) {
      w_.Str(bb->name());
      w_.VarU64(bb->instructions().size());
      for (const auto& inst : bb->instructions()) {
        WriteInstruction(*inst);
      }
    }
  }

  void WriteInstruction(const Instruction& inst) {
    w_.U8(static_cast<uint8_t>(inst.opcode()));
    w_.Str(inst.name());
    w_.Str(module_.MetapoolOf(&inst));
    w_.U8(module_.HasSignatureAssertion(&inst) ? 1 : 0);
    switch (inst.opcode()) {
      case Opcode::kICmp:
      case Opcode::kFCmp: {
        const auto& cmp = static_cast<const CmpInst&>(inst);
        w_.U8(static_cast<uint8_t>(cmp.pred()));
        WriteRef(cmp.lhs());
        WriteRef(cmp.rhs());
        break;
      }
      case Opcode::kSelect:
      case Opcode::kCmpXchg:
        WriteRef(inst.operand(0));
        WriteRef(inst.operand(1));
        WriteRef(inst.operand(2));
        break;
      case Opcode::kTrunc:
      case Opcode::kZExt:
      case Opcode::kSExt:
      case Opcode::kBitcast:
      case Opcode::kPtrToInt:
      case Opcode::kIntToPtr:
      case Opcode::kSIToFP:
      case Opcode::kFPToSI:
        w_.VarU64(types_.IndexOf(inst.type()));
        WriteRef(inst.operand(0));
        break;
      case Opcode::kAlloca: {
        const auto& a = static_cast<const AllocaInst&>(inst);
        w_.VarU64(types_.IndexOf(a.allocated_type()));
        WriteRef(a.count());
        break;
      }
      case Opcode::kMalloc: {
        const auto& m = static_cast<const MallocInst&>(inst);
        w_.VarU64(types_.IndexOf(m.allocated_type()));
        WriteRef(m.count());
        break;
      }
      case Opcode::kFree:
      case Opcode::kLoad:
        WriteRef(inst.operand(0));
        break;
      case Opcode::kStore:
      case Opcode::kAtomicLIS:
        WriteRef(inst.operand(0));
        WriteRef(inst.operand(1));
        break;
      case Opcode::kGetElementPtr: {
        w_.VarU64(inst.num_operands());
        for (const Value* op : inst.operands()) {
          WriteRef(op);
        }
        break;
      }
      case Opcode::kWriteBarrier:
      case Opcode::kUnreachable:
        break;
      case Opcode::kCall: {
        w_.VarU64(types_.IndexOf(inst.type()));
        w_.VarU64(inst.num_operands());
        for (const Value* op : inst.operands()) {
          WriteRef(op);
        }
        break;
      }
      case Opcode::kPhi: {
        const auto& phi = static_cast<const PhiInst&>(inst);
        w_.VarU64(types_.IndexOf(inst.type()));
        w_.VarU64(phi.num_incoming());
        for (size_t i = 0; i < phi.num_incoming(); ++i) {
          WriteRef(phi.incoming_value(i));
          w_.VarU64(block_ids_.at(phi.incoming_block(i)));
        }
        break;
      }
      case Opcode::kBr: {
        const auto& br = static_cast<const BranchInst&>(inst);
        w_.U8(br.is_conditional() ? 1 : 0);
        if (br.is_conditional()) {
          WriteRef(br.condition());
          w_.VarU64(block_ids_.at(br.target(0)));
          w_.VarU64(block_ids_.at(br.target(1)));
        } else {
          w_.VarU64(block_ids_.at(br.target(0)));
        }
        break;
      }
      case Opcode::kSwitch: {
        const auto& sw = static_cast<const SwitchInst&>(inst);
        WriteRef(sw.condition());
        w_.VarU64(block_ids_.at(sw.default_target()));
        w_.VarU64(sw.num_cases());
        for (size_t i = 0; i < sw.num_cases(); ++i) {
          w_.VarU64(sw.case_value(i));
          w_.VarU64(block_ids_.at(sw.case_target(i)));
        }
        break;
      }
      case Opcode::kRet: {
        const auto& ret = static_cast<const RetInst&>(inst);
        w_.U8(ret.has_value() ? 1 : 0);
        if (ret.has_value()) {
          WriteRef(ret.value());
        }
        break;
      }
      default:
        // Binary arithmetic.
        WriteRef(inst.operand(0));
        WriteRef(inst.operand(1));
        break;
    }
  }

  const Module& module_;
  ByteWriter w_;
  TypeTable types_;
  std::unordered_map<const Value*, uint64_t> local_ids_;
  std::unordered_map<const BasicBlock*, uint64_t> block_ids_;
};

// --- Reader ------------------------------------------------------------------

struct PendingStructBody {
  StructType* st;
  std::vector<uint64_t> field_indexes;
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& data) : r_(data) {}

  Result<std::unique_ptr<Module>> Read() {
    for (uint8_t expected : kMagic) {
      SVA_ASSIGN_OR_RETURN(uint8_t b, r_.U8());
      if (b != expected) {
        return ParseError("bad bytecode magic");
      }
    }
    SVA_ASSIGN_OR_RETURN(std::string name, r_.Str());
    module_ = std::make_unique<Module>(name);
    SVA_RETURN_IF_ERROR(ReadTypeTable());
    SVA_RETURN_IF_ERROR(ReadMetapools());
    SVA_RETURN_IF_ERROR(ReadGlobals());
    SVA_RETURN_IF_ERROR(ReadFunctionSignatures());
    while (!r_.AtEnd()) {
      SVA_RETURN_IF_ERROR(ReadFunctionBody());
    }
    return std::move(module_);
  }

 private:
  Result<const Type*> TypeAt(uint64_t idx) {
    if (idx >= type_table_.size()) {
      return ParseError("type index out of range");
    }
    return type_table_[idx];
  }

  Status ReadTypeTable() {
    TypeContext& types = module_->types();
    SVA_ASSIGN_OR_RETURN(uint64_t count, r_.VarU64());
    std::vector<PendingStructBody> pending;
    // Pass 1: create all types. Named structs start opaque; non-named types
    // reference only earlier indexes by construction of the writer.
    for (uint64_t i = 0; i < count; ++i) {
      SVA_ASSIGN_OR_RETURN(uint8_t kind_byte, r_.U8());
      auto kind = static_cast<TypeKind>(kind_byte);
      switch (kind) {
        case TypeKind::kVoid:
          type_table_.push_back(types.VoidTy());
          break;
        case TypeKind::kInt: {
          SVA_ASSIGN_OR_RETURN(uint64_t bits, r_.VarU64());
          type_table_.push_back(types.IntTy(static_cast<unsigned>(bits)));
          break;
        }
        case TypeKind::kFloat: {
          SVA_ASSIGN_OR_RETURN(uint64_t bits, r_.VarU64());
          type_table_.push_back(types.FloatTy(static_cast<unsigned>(bits)));
          break;
        }
        case TypeKind::kPointer: {
          SVA_ASSIGN_OR_RETURN(uint64_t p, r_.VarU64());
          SVA_ASSIGN_OR_RETURN(const Type* pointee, TypeAt(p));
          type_table_.push_back(types.PointerTo(pointee));
          break;
        }
        case TypeKind::kArray: {
          SVA_ASSIGN_OR_RETURN(uint64_t e, r_.VarU64());
          SVA_ASSIGN_OR_RETURN(uint64_t len, r_.VarU64());
          SVA_ASSIGN_OR_RETURN(const Type* elem, TypeAt(e));
          type_table_.push_back(types.ArrayOf(elem, len));
          break;
        }
        case TypeKind::kStruct: {
          SVA_ASSIGN_OR_RETURN(std::string sname, r_.Str());
          SVA_ASSIGN_OR_RETURN(uint8_t opaque, r_.U8());
          if (!sname.empty()) {
            StructType* st = types.NamedStruct(sname);
            type_table_.push_back(st);
            if (opaque == 0) {
              SVA_ASSIGN_OR_RETURN(uint64_t nfields, r_.VarU64());
              PendingStructBody body;
              body.st = st;
              for (uint64_t f = 0; f < nfields; ++f) {
                SVA_ASSIGN_OR_RETURN(uint64_t fi, r_.VarU64());
                body.field_indexes.push_back(fi);
              }
              pending.push_back(std::move(body));
            }
          } else {
            // Literal struct: fields must already exist.
            SVA_ASSIGN_OR_RETURN(uint64_t nfields, r_.VarU64());
            std::vector<const Type*> fields;
            for (uint64_t f = 0; f < nfields; ++f) {
              SVA_ASSIGN_OR_RETURN(uint64_t fi, r_.VarU64());
              SVA_ASSIGN_OR_RETURN(const Type* ft, TypeAt(fi));
              fields.push_back(ft);
            }
            type_table_.push_back(types.Struct(fields));
          }
          break;
        }
        case TypeKind::kFunction: {
          SVA_ASSIGN_OR_RETURN(uint64_t ret, r_.VarU64());
          SVA_ASSIGN_OR_RETURN(uint64_t nparams, r_.VarU64());
          std::vector<const Type*> params;
          for (uint64_t p = 0; p < nparams; ++p) {
            SVA_ASSIGN_OR_RETURN(uint64_t pi, r_.VarU64());
            SVA_ASSIGN_OR_RETURN(const Type* pt, TypeAt(pi));
            params.push_back(pt);
          }
          SVA_ASSIGN_OR_RETURN(uint8_t vararg, r_.U8());
          SVA_ASSIGN_OR_RETURN(const Type* rt, TypeAt(ret));
          type_table_.push_back(types.FunctionTy(rt, params, vararg != 0));
          break;
        }
        default:
          return ParseError("bad type kind in bytecode");
      }
    }
    // Pass 2: fill named struct bodies.
    for (const PendingStructBody& body : pending) {
      std::vector<const Type*> fields;
      for (uint64_t fi : body.field_indexes) {
        SVA_ASSIGN_OR_RETURN(const Type* ft, TypeAt(fi));
        fields.push_back(ft);
      }
      if (body.st->IsOpaque()) {
        body.st->SetBody(std::move(fields));
      }
    }
    return OkStatus();
  }

  Status ReadMetapools() {
    SVA_ASSIGN_OR_RETURN(uint64_t count, r_.VarU64());
    for (uint64_t i = 0; i < count; ++i) {
      SVA_ASSIGN_OR_RETURN(std::string name, r_.Str());
      SVA_ASSIGN_OR_RETURN(uint8_t flags, r_.U8());
      MetapoolDecl& decl = module_->DeclareMetapool(name);
      decl.type_homogeneous = (flags & 1) != 0;
      decl.complete = (flags & 2) != 0;
      decl.user_reachable = (flags & 4) != 0;
      decl.classified = (flags & 8) != 0;
      SVA_ASSIGN_OR_RETURN(uint8_t has_type, r_.U8());
      if (has_type != 0) {
        SVA_ASSIGN_OR_RETURN(uint64_t ti, r_.VarU64());
        SVA_ASSIGN_OR_RETURN(decl.element_type, TypeAt(ti));
      }
      MetapoolHandle(*module_, name);
    }
    SVA_ASSIGN_OR_RETURN(uint64_t nsets, r_.VarU64());
    for (uint64_t i = 0; i < nsets; ++i) {
      SVA_ASSIGN_OR_RETURN(uint64_t nfns, r_.VarU64());
      std::vector<std::string> names;
      for (uint64_t f = 0; f < nfns; ++f) {
        SVA_ASSIGN_OR_RETURN(std::string fname, r_.Str());
        names.push_back(std::move(fname));
      }
      module_->AddTargetSet(std::move(names));
    }
    return OkStatus();
  }

  Status ReadGlobals() {
    SVA_ASSIGN_OR_RETURN(uint64_t count, r_.VarU64());
    for (uint64_t i = 0; i < count; ++i) {
      SVA_ASSIGN_OR_RETURN(std::string name, r_.Str());
      SVA_ASSIGN_OR_RETURN(uint64_t ti, r_.VarU64());
      SVA_ASSIGN_OR_RETURN(uint8_t flags, r_.U8());
      SVA_ASSIGN_OR_RETURN(const Type* vt, TypeAt(ti));
      GlobalVariable* gv = module_->CreateGlobal(name, vt, (flags & 1) != 0);
      if ((flags & 2) != 0) {
        SVA_ASSIGN_OR_RETURN(uint64_t init, r_.VarU64());
        gv->set_int_initializer(init);
      }
      SVA_ASSIGN_OR_RETURN(std::string mp, r_.Str());
      if (!mp.empty()) {
        module_->AnnotateValue(gv, mp);
      }
    }
    return OkStatus();
  }

  Status ReadFunctionSignatures() {
    SVA_ASSIGN_OR_RETURN(uint64_t count, r_.VarU64());
    for (uint64_t i = 0; i < count; ++i) {
      SVA_ASSIGN_OR_RETURN(std::string name, r_.Str());
      SVA_ASSIGN_OR_RETURN(uint64_t ti, r_.VarU64());
      SVA_ASSIGN_OR_RETURN(uint8_t is_decl, r_.U8());
      SVA_ASSIGN_OR_RETURN(const Type* ft, TypeAt(ti));
      if (!ft->IsFunction()) {
        return ParseError("function signature type is not a function type");
      }
      Function* fn = module_->GetFunction(name);
      if (fn == nullptr) {
        fn = module_->CreateFunction(
            name, static_cast<const FunctionType*>(ft), /*is_declaration=*/true);
      }
      if (is_decl == 0) {
        fn->set_is_declaration(false);
      }
      (void)fn;
    }
    return OkStatus();
  }

  struct LocalFixup {
    Instruction* inst;
    size_t operand_index;
    int phi_index;
    uint64_t id;
  };

  struct RefResult {
    Value* value = nullptr;   // resolved
    bool forward = false;     // forward local ref
    uint64_t id = 0;
    const Type* type = nullptr;
  };

  Result<RefResult> ReadRef() {
    RefResult out;
    SVA_ASSIGN_OR_RETURN(uint8_t tag_byte, r_.U8());
    auto tag = static_cast<RefTag>(tag_byte);
    switch (tag) {
      case RefTag::kLocal: {
        SVA_ASSIGN_OR_RETURN(out.id, r_.VarU64());
        SVA_ASSIGN_OR_RETURN(uint64_t ti, r_.VarU64());
        SVA_ASSIGN_OR_RETURN(out.type, TypeAt(ti));
        if (Value* local = Local(out.id)) {
          out.value = local;
        } else {
          out.forward = true;
          out.value = module_->GetUndef(out.type);
        }
        return out;
      }
      case RefTag::kInt: {
        SVA_ASSIGN_OR_RETURN(uint64_t ti, r_.VarU64());
        SVA_ASSIGN_OR_RETURN(uint64_t bits, r_.VarU64());
        SVA_ASSIGN_OR_RETURN(const Type* t, TypeAt(ti));
        if (!t->IsInt()) {
          return ParseError("int constant with non-int type");
        }
        out.value = module_->GetInt(static_cast<const IntType*>(t), bits);
        return out;
      }
      case RefTag::kFloat: {
        SVA_ASSIGN_OR_RETURN(uint64_t ti, r_.VarU64());
        SVA_ASSIGN_OR_RETURN(double v, r_.F64());
        SVA_ASSIGN_OR_RETURN(const Type* t, TypeAt(ti));
        if (!t->IsFloat()) {
          return ParseError("float constant with non-float type");
        }
        out.value = module_->GetFloat(static_cast<const FloatType*>(t), v);
        return out;
      }
      case RefTag::kNull: {
        SVA_ASSIGN_OR_RETURN(uint64_t ti, r_.VarU64());
        SVA_ASSIGN_OR_RETURN(const Type* t, TypeAt(ti));
        if (!t->IsPointer()) {
          return ParseError("null constant with non-pointer type");
        }
        out.value = module_->GetNull(static_cast<const PointerType*>(t));
        return out;
      }
      case RefTag::kUndef: {
        SVA_ASSIGN_OR_RETURN(uint64_t ti, r_.VarU64());
        SVA_ASSIGN_OR_RETURN(const Type* t, TypeAt(ti));
        out.value = module_->GetUndef(t);
        return out;
      }
      case RefTag::kGlobal: {
        SVA_ASSIGN_OR_RETURN(std::string name, r_.Str());
        out.value = module_->GetGlobal(name);
        if (out.value == nullptr) {
          return ParseError(StrCat("bytecode references unknown global @",
                                   name));
        }
        return out;
      }
      case RefTag::kFunc: {
        SVA_ASSIGN_OR_RETURN(std::string name, r_.Str());
        out.value = module_->GetFunction(name);
        if (out.value == nullptr) {
          return ParseError(StrCat("bytecode references unknown function @",
                                   name));
        }
        return out;
      }
    }
    return ParseError("bad operand tag");
  }

  Result<BasicBlock*> BlockAt(uint64_t idx) {
    if (idx >= block_list_.size()) {
      return ParseError("block index out of range");
    }
    return block_list_[idx];
  }

  Status ReadFunctionBody() {
    SVA_ASSIGN_OR_RETURN(std::string name, r_.Str());
    Function* fn = module_->GetFunction(name);
    if (fn == nullptr) {
      return ParseError(StrCat("body for unknown function @", name));
    }
    locals_.clear();
    block_list_.clear();
    std::vector<LocalFixup> fixups;
    uint64_t next_id = 0;
    for (size_t i = 0; i < fn->num_args(); ++i) {
      SVA_ASSIGN_OR_RETURN(std::string arg_name, r_.Str());
      SVA_ASSIGN_OR_RETURN(std::string mp, r_.Str());
      fn->arg(i)->set_name(arg_name);
      if (!mp.empty()) {
        module_->AnnotateValue(fn->arg(i), mp);
      }
      Define(next_id, fn->arg(i));
    }
    SVA_ASSIGN_OR_RETURN(uint64_t nblocks, r_.VarU64());
    std::vector<uint64_t> block_sizes;
    // We must create all blocks before reading instructions (forward branch
    // targets), so read block headers and instruction payloads in one pass,
    // creating blocks lazily is not possible — instead the writer interleaves
    // them. We create blocks on demand by index as encountered; but since
    // block count is known, pre-create with placeholder names and rename.
    for (uint64_t i = 0; i < nblocks; ++i) {
      block_list_.push_back(fn->CreateBlock(StrCat("bb", i)));
    }
    IRBuilder b(*module_);
    for (uint64_t bi = 0; bi < nblocks; ++bi) {
      SVA_ASSIGN_OR_RETURN(std::string bname, r_.Str());
      block_list_[bi]->set_name(bname);
      SVA_ASSIGN_OR_RETURN(uint64_t ninsts, r_.VarU64());
      BasicBlock* bb = block_list_[bi];
      b.SetInsertPoint(bb);
      for (uint64_t ii = 0; ii < ninsts; ++ii) {
        SVA_RETURN_IF_ERROR(ReadInstruction(b, bb, next_id, fixups));
      }
    }
    (void)block_sizes;
    for (const LocalFixup& fx : fixups) {
      Value* local = Local(fx.id);
      if (local == nullptr) {
        return ParseError("unresolved forward local reference");
      }
      if (fx.phi_index >= 0) {
        static_cast<PhiInst*>(fx.inst)->set_incoming_value(
            static_cast<size_t>(fx.phi_index), local);
      } else {
        fx.inst->set_operand(fx.operand_index, local);
      }
    }
    return OkStatus();
  }

  // The IRBuilder assumes verified IR and downcasts operand types without
  // checking (static_cast to PointerType); untrusted bytecode must not reach
  // it with a non-pointer operand, so memory/call instructions validate the
  // operand's type kind here and reject the module instead.
  Status RequirePointer(const RefResult& ref, const char* what) {
    if (ref.value == nullptr || !ref.value->type()->IsPointer()) {
      return ParseError(std::string(what) + " operand is not a pointer");
    }
    return OkStatus();
  }

  Status ReadInstruction(IRBuilder& b, BasicBlock* bb, uint64_t& next_id,
                         std::vector<LocalFixup>& fixups) {
    TypeContext& types = module_->types();
    SVA_ASSIGN_OR_RETURN(uint8_t op_byte, r_.U8());
    auto op = static_cast<Opcode>(op_byte);
    SVA_ASSIGN_OR_RETURN(std::string name, r_.Str());
    SVA_ASSIGN_OR_RETURN(std::string mp, r_.Str());
    SVA_ASSIGN_OR_RETURN(uint8_t has_sig, r_.U8());

    auto note = [&](Instruction* inst, size_t oi, const RefResult& ref,
                    int phi_index = -1) {
      if (ref.forward) {
        fixups.push_back(LocalFixup{inst, oi, phi_index, ref.id});
      }
    };

    Value* result = nullptr;
    switch (op) {
      case Opcode::kICmp:
      case Opcode::kFCmp: {
        SVA_ASSIGN_OR_RETURN(uint8_t pred, r_.U8());
        SVA_ASSIGN_OR_RETURN(RefResult lhs, ReadRef());
        SVA_ASSIGN_OR_RETURN(RefResult rhs, ReadRef());
        result = op == Opcode::kICmp
                     ? b.CreateICmp(static_cast<CmpPred>(pred), lhs.value,
                                    rhs.value, name)
                     : b.CreateFCmp(static_cast<CmpPred>(pred), lhs.value,
                                    rhs.value, name);
        note(static_cast<Instruction*>(result), 0, lhs);
        note(static_cast<Instruction*>(result), 1, rhs);
        break;
      }
      case Opcode::kSelect: {
        SVA_ASSIGN_OR_RETURN(RefResult c, ReadRef());
        SVA_ASSIGN_OR_RETURN(RefResult t, ReadRef());
        SVA_ASSIGN_OR_RETURN(RefResult f, ReadRef());
        result = b.CreateSelect(c.value, t.value, f.value, name);
        note(static_cast<Instruction*>(result), 0, c);
        note(static_cast<Instruction*>(result), 1, t);
        note(static_cast<Instruction*>(result), 2, f);
        break;
      }
      case Opcode::kCmpXchg: {
        SVA_ASSIGN_OR_RETURN(RefResult p, ReadRef());
        SVA_ASSIGN_OR_RETURN(RefResult e, ReadRef());
        SVA_ASSIGN_OR_RETURN(RefResult d, ReadRef());
        SVA_RETURN_IF_ERROR(RequirePointer(p, "cmpxchg"));
        result = b.CreateCmpXchg(p.value, e.value, d.value, name);
        note(static_cast<Instruction*>(result), 0, p);
        note(static_cast<Instruction*>(result), 1, e);
        note(static_cast<Instruction*>(result), 2, d);
        break;
      }
      case Opcode::kTrunc:
      case Opcode::kZExt:
      case Opcode::kSExt:
      case Opcode::kBitcast:
      case Opcode::kPtrToInt:
      case Opcode::kIntToPtr:
      case Opcode::kSIToFP:
      case Opcode::kFPToSI: {
        SVA_ASSIGN_OR_RETURN(uint64_t ti, r_.VarU64());
        SVA_ASSIGN_OR_RETURN(const Type* dst, TypeAt(ti));
        SVA_ASSIGN_OR_RETURN(RefResult src, ReadRef());
        result = b.CreateCast(op, src.value, dst, name);
        note(static_cast<Instruction*>(result), 0, src);
        break;
      }
      case Opcode::kAlloca:
      case Opcode::kMalloc: {
        SVA_ASSIGN_OR_RETURN(uint64_t ti, r_.VarU64());
        SVA_ASSIGN_OR_RETURN(const Type* allocated, TypeAt(ti));
        SVA_ASSIGN_OR_RETURN(RefResult count, ReadRef());
        result = op == Opcode::kAlloca
                     ? b.CreateAlloca(allocated, count.value, name)
                     : b.CreateMalloc(allocated, count.value, name);
        note(static_cast<Instruction*>(result), 0, count);
        break;
      }
      case Opcode::kFree: {
        SVA_ASSIGN_OR_RETURN(RefResult ptr, ReadRef());
        SVA_RETURN_IF_ERROR(RequirePointer(ptr, "free"));
        b.CreateFree(ptr.value);
        note(bb->back(), 0, ptr);
        break;
      }
      case Opcode::kLoad: {
        SVA_ASSIGN_OR_RETURN(RefResult ptr, ReadRef());
        SVA_RETURN_IF_ERROR(RequirePointer(ptr, "load"));
        result = b.CreateLoad(ptr.value, name);
        note(static_cast<Instruction*>(result), 0, ptr);
        break;
      }
      case Opcode::kStore: {
        SVA_ASSIGN_OR_RETURN(RefResult v, ReadRef());
        SVA_ASSIGN_OR_RETURN(RefResult p, ReadRef());
        SVA_RETURN_IF_ERROR(RequirePointer(p, "store"));
        b.CreateStore(v.value, p.value);
        note(bb->back(), 0, v);
        note(bb->back(), 1, p);
        break;
      }
      case Opcode::kAtomicLIS: {
        SVA_ASSIGN_OR_RETURN(RefResult p, ReadRef());
        SVA_ASSIGN_OR_RETURN(RefResult d, ReadRef());
        SVA_RETURN_IF_ERROR(RequirePointer(p, "atomic-lis"));
        result = b.CreateAtomicLIS(p.value, d.value, name);
        note(static_cast<Instruction*>(result), 0, p);
        note(static_cast<Instruction*>(result), 1, d);
        break;
      }
      case Opcode::kGetElementPtr: {
        SVA_ASSIGN_OR_RETURN(uint64_t nops, r_.VarU64());
        if (nops == 0) {
          return ParseError("gep with no operands");
        }
        std::vector<RefResult> refs;
        for (uint64_t i = 0; i < nops; ++i) {
          SVA_ASSIGN_OR_RETURN(RefResult r, ReadRef());
          refs.push_back(r);
        }
        std::vector<Value*> indices;
        for (size_t i = 1; i < refs.size(); ++i) {
          indices.push_back(refs[i].value);
        }
        SVA_RETURN_IF_ERROR(RequirePointer(refs[0], "gep base"));
        Result<const Type*> indexed = GepIndexedType(
            static_cast<const PointerType*>(refs[0].value->type())->pointee(),
            indices);
        if (!indexed.ok()) {
          return ParseError("gep indices do not match the pointee type");
        }
        result = b.CreateGEP(refs[0].value, indices, name);
        for (size_t i = 0; i < refs.size(); ++i) {
          note(static_cast<Instruction*>(result), i, refs[i]);
        }
        break;
      }
      case Opcode::kWriteBarrier:
        b.CreateWriteBarrier();
        break;
      case Opcode::kUnreachable:
        b.CreateUnreachable();
        break;
      case Opcode::kCall: {
        SVA_ASSIGN_OR_RETURN(uint64_t rt, r_.VarU64());
        SVA_ASSIGN_OR_RETURN(const Type* ret, TypeAt(rt));
        SVA_ASSIGN_OR_RETURN(uint64_t nops, r_.VarU64());
        if (nops == 0) {
          return ParseError("call with no callee");
        }
        std::vector<RefResult> refs;
        for (uint64_t i = 0; i < nops; ++i) {
          SVA_ASSIGN_OR_RETURN(RefResult r, ReadRef());
          refs.push_back(r);
        }
        Value* callee = refs[0].value;
        if (refs[0].forward) {
          // Forward indirect callee: placeholder with reconstructed type.
          std::vector<const Type*> params;
          for (size_t i = 1; i < refs.size(); ++i) {
            params.push_back(refs[i].value->type());
          }
          callee = module_->GetUndef(
              types.PointerTo(types.FunctionTy(ret, params, false)));
        }
        std::vector<Value*> args;
        for (size_t i = 1; i < refs.size(); ++i) {
          args.push_back(refs[i].value);
        }
        if (!callee->type()->IsPointer() ||
            !static_cast<const PointerType*>(callee->type())
                 ->pointee()
                 ->IsFunction()) {
          return ParseError("call callee is not a function pointer");
        }
        result = b.CreateCall(callee, args, name);
        for (size_t i = 0; i < refs.size(); ++i) {
          note(static_cast<Instruction*>(result), i, refs[i]);
        }
        if (result->type()->IsVoid()) {
          result = nullptr;
        }
        break;
      }
      case Opcode::kPhi: {
        SVA_ASSIGN_OR_RETURN(uint64_t ti, r_.VarU64());
        SVA_ASSIGN_OR_RETURN(const Type* type, TypeAt(ti));
        SVA_ASSIGN_OR_RETURN(uint64_t n, r_.VarU64());
        PhiInst* phi = b.CreatePhi(type, name);
        for (uint64_t i = 0; i < n; ++i) {
          SVA_ASSIGN_OR_RETURN(RefResult v, ReadRef());
          SVA_ASSIGN_OR_RETURN(uint64_t bi, r_.VarU64());
          SVA_ASSIGN_OR_RETURN(BasicBlock* in, BlockAt(bi));
          phi->AddIncoming(v.value, in);
          note(phi, 0, v, static_cast<int>(i));
        }
        result = phi;
        break;
      }
      case Opcode::kBr: {
        SVA_ASSIGN_OR_RETURN(uint8_t cond, r_.U8());
        if (cond != 0) {
          SVA_ASSIGN_OR_RETURN(RefResult c, ReadRef());
          SVA_ASSIGN_OR_RETURN(uint64_t t, r_.VarU64());
          SVA_ASSIGN_OR_RETURN(uint64_t f, r_.VarU64());
          SVA_ASSIGN_OR_RETURN(BasicBlock* tb, BlockAt(t));
          SVA_ASSIGN_OR_RETURN(BasicBlock* fb, BlockAt(f));
          b.CreateCondBr(c.value, tb, fb);
          note(bb->back(), 0, c);
        } else {
          SVA_ASSIGN_OR_RETURN(uint64_t t, r_.VarU64());
          SVA_ASSIGN_OR_RETURN(BasicBlock* tb, BlockAt(t));
          b.CreateBr(tb);
        }
        break;
      }
      case Opcode::kSwitch: {
        SVA_ASSIGN_OR_RETURN(RefResult v, ReadRef());
        SVA_ASSIGN_OR_RETURN(uint64_t d, r_.VarU64());
        SVA_ASSIGN_OR_RETURN(BasicBlock* db, BlockAt(d));
        SwitchInst* sw = b.CreateSwitch(v.value, db);
        note(sw, 0, v);
        SVA_ASSIGN_OR_RETURN(uint64_t ncases, r_.VarU64());
        for (uint64_t i = 0; i < ncases; ++i) {
          SVA_ASSIGN_OR_RETURN(uint64_t cv, r_.VarU64());
          SVA_ASSIGN_OR_RETURN(uint64_t ct, r_.VarU64());
          SVA_ASSIGN_OR_RETURN(BasicBlock* cb, BlockAt(ct));
          sw->AddCase(cv, cb);
        }
        break;
      }
      case Opcode::kRet: {
        SVA_ASSIGN_OR_RETURN(uint8_t has_value, r_.U8());
        if (has_value != 0) {
          SVA_ASSIGN_OR_RETURN(RefResult v, ReadRef());
          b.CreateRet(v.value);
          note(bb->back(), 0, v);
        } else {
          b.CreateRetVoid();
        }
        break;
      }
      default: {
        if (op < Opcode::kAdd || op > Opcode::kFDiv) {
          return ParseError("bad opcode in bytecode");
        }
        SVA_ASSIGN_OR_RETURN(RefResult lhs, ReadRef());
        SVA_ASSIGN_OR_RETURN(RefResult rhs, ReadRef());
        result = b.CreateBinary(op, lhs.value, rhs.value, name);
        note(static_cast<Instruction*>(result), 0, lhs);
        note(static_cast<Instruction*>(result), 1, rhs);
        break;
      }
    }

    Instruction* inst = bb->back();
    Define(next_id, inst);
    if (!mp.empty()) {
      module_->AnnotateValue(inst, mp);
    }
    if (has_sig != 0) {
      module_->AddSignatureAssertion(inst);
    }
    (void)result;
    return OkStatus();
  }

  ByteReader r_;
  std::unique_ptr<Module> module_;
  std::vector<const Type*> type_table_;
  // Function-local values by id; ids are dense, in definition order.
  Value* Local(uint64_t id) const {
    return id < locals_.size() ? locals_[id] : nullptr;
  }
  void Define(uint64_t& next_id, Value* v) {
    if (locals_.size() <= next_id) {
      locals_.resize(next_id + 1, nullptr);
    }
    locals_[next_id++] = v;
  }
  std::vector<Value*> locals_;
  std::vector<BasicBlock*> block_list_;
};

}  // namespace

std::vector<uint8_t> WriteBytecode(const Module& module) {
  Writer writer(module);
  return writer.Write();
}

Result<std::unique_ptr<Module>> ReadBytecode(const std::vector<uint8_t>& data) {
  Reader reader(data);
  return reader.Read();
}

bool IsBytecode(const std::vector<uint8_t>& data) {
  return data.size() >= sizeof(kMagic) &&
         std::equal(std::begin(kMagic), std::end(kMagic), data.begin());
}

uint64_t DigestBytes(const std::vector<uint8_t>& data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (uint8_t b : data) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace sva::vir
