// Chrome trace-event export for the span profiler.
//
// Renders a Profiler::Snapshot as the JSON object format understood by
// chrome://tracing and Perfetto (https://ui.perfetto.dev): one "X"
// complete event per Span (nested per thread track), "s"/"f" flow
// arrows between spans, and "M" metadata naming the process and every
// thread ("main", "pool-3").
//
//   Profiler::instance().enable();
//   ... run ...
//   write_chrome_trace("run.trace.json");   // drains the profiler
//
// Timestamps are microseconds since the profiler epoch, which is what
// the trace-event spec expects in `ts`/`dur`.

#pragma once

#include <string>

#include "obs/profiler.h"
#include "support/json.h"

namespace fed {

// {"traceEvents":[...],"displayTimeUnit":"ms"} for one snapshot.
JsonValue chrome_trace_json(const Profiler::Snapshot& snapshot);

// Drains the global profiler and writes the trace to `path`, creating
// parent directories. Throws std::runtime_error if the file cannot be
// written.
void write_chrome_trace(const std::string& path);

}  // namespace fed
