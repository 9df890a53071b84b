// SharedVariable — passive recovery unit shared by all sessions of an MSP
// (§2.2, §3.3). Access is protected by a per-variable read/write lock held
// only for the duration of the access (so no deadlocks and no lock table).
// The variable carries its own DV and state number (the LSN of its most
// recent write); writes form a backward chain through the log that breaks
// at shared-variable checkpoints, enabling undo-style orphan recovery by
// whichever session trips over the orphan value.
#pragma once

#include <cstdint>
#include <string>

#include "audit/mutex.h"
#include "common/bytes.h"
#include "recovery/dependency_vector.h"

namespace msplog {

class SharedVariable {
 public:
  SharedVariable(std::string name, Bytes initial)
      : name(std::move(name)),
        initial_value(initial),
        value(std::move(initial)) {}

  const std::string name;
  const Bytes initial_value;

  // The lock is declared before the state it guards so the GUARDED_BY
  // expressions below can name it.
  audit::SharedMutex rw{"shared_var.rw"};

  Bytes value GUARDED_BY(rw);
  DependencyVector dv GUARDED_BY(rw);  ///< dependency of the current value
  /// LSN of the most recent write (0 = initial).
  uint64_t state_number GUARDED_BY(rw) = 0;
  /// Head of the backward write chain.
  uint64_t last_write_lsn GUARDED_BY(rw) = 0;
  uint64_t last_checkpoint_lsn GUARDED_BY(rw) = 0;
  uint32_t writes_since_cp GUARDED_BY(rw) = 0;
  uint32_t msp_cps_since_cp GUARDED_BY(rw) = 0;

  /// Make `v`, logged at `lsn` (0: the initial value) with dependency `d`,
  /// the current value; the backward write chain continues from `lsn`.
  void RestoreLocked(Bytes v, const DependencyVector& d, uint64_t lsn)
      REQUIRES(rw) {
    value = std::move(v);
    dv.ReplaceWith(d);
    state_number = lsn;
    last_write_lsn = lsn;
  }
};

}  // namespace msplog
