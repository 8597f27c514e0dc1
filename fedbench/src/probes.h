// Replay probes: per-layer numbers for the layer functions the Trainer
// calls without a seam the benchmark could decorate. Each probe replays
// inputs captured from (or shaped like) the traced run through the
// layer's public functions and times them directly:
//
//   sim     select_devices at N and at 1M devices (a pk vector only),
//           DeviceRegistry begin_round/end_round, PartialAggregate
//           accumulate+finalize over captured updates
//   support FPB1/FPU1/FPS1/FPC1 encode/decode on captured frames; every
//           decode is re-encoded and must equal its source bytes
//   tensor  gemv/gemm at the workload's model shapes, ExactSum::add
//   core    CheckpointWriter writes of the episode's final state (neither
//           workload checkpoints on its own)

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "comm/message.h"
#include "support/serialize.h"

namespace fedbench {

using Metrics = std::map<std::string, double>;

struct ProbeInputs {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t devices_per_round = 0;
  std::vector<double> pk;  // the federation's n_k / n weights
  std::vector<fed::OwnedBroadcast> broadcasts;  // captured, non-empty
  std::vector<fed::ClientUpdate> updates;       // captured, non-empty
  fed::CheckpointState checkpoint;  // the state after the last round
  std::string run_dir;  // where the replayed checkpoint writes land
};

struct ProbeResult {
  Metrics metrics;
  std::size_t checks = 0;             // correctness checks attempted
  std::vector<std::string> failures;  // one line per failed check
};

ProbeResult run_probes(const ProbeInputs& inputs);

}  // namespace fedbench
