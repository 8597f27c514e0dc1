#include "obs/chrome_trace.h"

namespace fed {

namespace {

constexpr int kPid = 1;

JsonObject metadata_event(const char* name, std::uint32_t tid,
                          const std::string& value) {
  JsonObject args;
  args["name"] = value;
  JsonObject event;
  event["name"] = name;
  event["ph"] = "M";
  event["pid"] = kPid;
  event["tid"] = static_cast<std::size_t>(tid);
  event["args"] = std::move(args);
  return event;
}

const char* phase_of(ProfileEvent::Type type) {
  switch (type) {
    case ProfileEvent::Type::kComplete: return "X";
    case ProfileEvent::Type::kFlowStart: return "s";
    case ProfileEvent::Type::kFlowEnd: return "f";
  }
  return "X";
}

}  // namespace

JsonValue chrome_trace_json(const Profiler::Snapshot& snapshot) {
  JsonArray events;
  events.reserve(snapshot.events.size() + snapshot.threads.size() + 1);

  events.emplace_back(metadata_event("process_name", 0, "fedprox"));
  for (const auto& [tid, name] : snapshot.threads) {
    events.emplace_back(metadata_event("thread_name", tid, name));
  }

  for (const ProfileEvent& e : snapshot.events) {
    JsonObject event;
    event["name"] = e.name ? e.name : "?";
    event["cat"] = e.category ? e.category : "span";
    event["ph"] = phase_of(e.type);
    event["ts"] = static_cast<double>(e.start_us);
    event["pid"] = kPid;
    event["tid"] = static_cast<std::size_t>(e.tid);
    if (e.type == ProfileEvent::Type::kComplete) {
      event["dur"] = static_cast<double>(e.dur_us);
    } else {
      event["id"] = static_cast<std::size_t>(e.id);
    }
    if (e.type == ProfileEvent::Type::kFlowEnd) {
      // Bind the arrowhead to the *enclosing* slice (the span that was
      // open at this timestamp), not the next one to start.
      event["bp"] = "e";
    }
    if (e.num_args > 0) {
      JsonObject args;
      for (std::uint8_t i = 0; i < e.num_args; ++i) {
        args[e.arg_names[i]] = static_cast<double>(e.arg_values[i]);
      }
      event["args"] = std::move(args);
    }
    events.emplace_back(std::move(event));
  }

  JsonObject trace;
  trace["traceEvents"] = std::move(events);
  trace["displayTimeUnit"] = "ms";
  return JsonValue(std::move(trace));
}

void write_chrome_trace(const std::string& path) {
  save_json_file(path, chrome_trace_json(Profiler::instance().drain()));
}

}  // namespace fed
