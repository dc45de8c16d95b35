// Binary serialization of SVA bytecode modules ("virtual object code",
// Section 3.1). The SVM stores this form on disk, signs the (bytecode,
// native translation) pair, and verifies it at load time.
#ifndef SVA_SRC_VIR_BYTECODE_H_
#define SVA_SRC_VIR_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/support/status.h"
#include "src/vir/module.h"

namespace sva::vir {

// Serializes `module` to the binary bytecode format.
std::vector<uint8_t> WriteBytecode(const Module& module);

// Deserializes a module. Performs format-level validation only; callers
// should run VerifyModule and the metapool type checker afterwards.
Result<std::unique_ptr<Module>> ReadBytecode(const std::vector<uint8_t>& data);

// True if `data` starts with the bytecode magic.
bool IsBytecode(const std::vector<uint8_t>& data);

// A stable 64-bit FNV-1a digest of arbitrary bytes, used by the SVM native
// code cache to "sign" bytecode/translation pairs (stand-in for the
// cryptographic signature of Section 3.4).
uint64_t DigestBytes(const std::vector<uint8_t>& data);

}  // namespace sva::vir

#endif  // SVA_SRC_VIR_BYTECODE_H_
