// Span profiler contract: no events while disabled, per-thread nesting,
// Chrome trace-event export shape, and the span hierarchy a real Trainer
// run emits.

#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/chrome_trace.h"
#include "obs/observer.h"
#include "support/json.h"
#include "support/log.h"
#include "test_util.h"

namespace fed {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  // The profiler is process-wide; make each test start from a clean,
  // disabled state whatever ran before it.
  void SetUp() override {
    Profiler::instance().disable();
    Profiler::instance().discard();
  }
  void TearDown() override {
    Profiler::instance().disable();
    Profiler::instance().discard();
  }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig c = synthetic_config(0.5, 0.5, 23);
      c.num_devices = 8;
      c.min_samples = 12;
      c.mean_log = 2.5;
      c.sigma_log = 0.4;
      return make_synthetic(c);
    }();
    return d;
  }

  static TrainerConfig config() {
    TrainerConfig c = fedprox_config(0.5);
    c.rounds = 3;
    c.devices_per_round = 4;
    c.systems.epochs = 2;
    c.systems.straggler_fraction = 0.5;
    c.learning_rate = 0.03;
    c.seed = 23;
    c.eval_every = 1;
    c.threads = 2;
    return c;
  }

  static Profiler::Snapshot run_profiled_trainer(
      const TrainerConfig& c = config(), TrainingObserver* observer = nullptr) {
    LogisticRegression model(data().input_dim, data().num_classes);
    Trainer trainer(model, data(), c);
    if (observer) trainer.add_observer(*observer);
    Profiler::instance().set_thread_name("main");
    Profiler::instance().enable();
    trainer.run();
    Profiler::instance().disable();
    return Profiler::instance().drain();
  }
};

TEST_F(ProfilerTest, DisabledProfilerRecordsNothing) {
  {
    Span outer("outer", "test");
    Span inner("inner", "test", "value", 7);
    EXPECT_FALSE(outer.active());
    EXPECT_FALSE(inner.active());
  }
  EXPECT_TRUE(Profiler::instance().drain().events.empty());
}

TEST_F(ProfilerTest, SpansNestAndCarryArgs) {
  Profiler::instance().enable();
  {
    Span outer("outer", "test", "round", 3);
    {
      Span inner("inner", "test", "device", 5, "iterations", 40);
    }
  }
  Profiler::instance().disable();

  const auto snapshot = Profiler::instance().drain();
  ASSERT_EQ(snapshot.events.size(), 2u);
  // Drain orders parents before the children they contain.
  const ProfileEvent& outer = snapshot.events[0];
  const ProfileEvent& inner = snapshot.events[1];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(outer.tid, inner.tid);
  EXPECT_LE(outer.start_us, inner.start_us);
  EXPECT_GE(outer.start_us + outer.dur_us, inner.start_us + inner.dur_us);
  ASSERT_EQ(outer.num_args, 1);
  EXPECT_STREQ(outer.arg_names[0], "round");
  EXPECT_EQ(outer.arg_values[0], 3);
  ASSERT_EQ(inner.num_args, 2);
  EXPECT_STREQ(inner.arg_names[0], "device");
  EXPECT_EQ(inner.arg_values[0], 5);
  EXPECT_STREQ(inner.arg_names[1], "iterations");
  EXPECT_EQ(inner.arg_values[1], 40);
}

TEST_F(ProfilerTest, ChromeTraceJsonRoundTripsThroughParser) {
  Profiler::instance().set_thread_name("main");
  Profiler::instance().enable();
  {
    Span span("unit_span", "test", "x", 1);
  }
  Profiler::instance().disable();

  const JsonValue doc = chrome_trace_json(Profiler::instance().drain());
  // Serialize + reparse: the artifact a tool would actually read.
  const JsonValue parsed = parse_json(serialize_json(doc));
  ASSERT_TRUE(parsed.contains("traceEvents"));
  EXPECT_EQ(parsed.at("displayTimeUnit").as_string(), "ms");

  bool saw_process_name = false, saw_main_thread = false, saw_span = false;
  for (const JsonValue& event : parsed.at("traceEvents").as_array()) {
    const std::string& name = event.at("name").as_string();
    const std::string& ph = event.at("ph").as_string();
    if (ph == "M" && name == "process_name") saw_process_name = true;
    if (ph == "M" && name == "thread_name" &&
        event.at("args").at("name").as_string() == "main") {
      saw_main_thread = true;
    }
    if (ph == "X" && name == "unit_span") {
      saw_span = true;
      EXPECT_GE(event.at("dur").as_number(), 0.0);
      EXPECT_EQ(event.at("args").at("x").as_number(), 1.0);
    }
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_main_thread);
  EXPECT_TRUE(saw_span);
}

TEST_F(ProfilerTest, TrainerRunEmitsTheDocumentedSpanHierarchy) {
  const auto snapshot = run_profiled_trainer();

  std::set<std::string> names;
  for (const ProfileEvent& e : snapshot.events) {
    if (e.type == ProfileEvent::Type::kComplete) names.insert(e.name);
  }
  for (const char* required :
       {"run", "round", "sampling", "solve_parallel", "aggregate", "eval",
        "exchange", "local_epoch", "task"}) {
    EXPECT_TRUE(names.count(required)) << "missing span: " << required;
  }

  // Worker threads register named tracks.
  bool saw_pool_thread = false;
  for (const auto& [tid, name] : snapshot.threads) {
    if (name.rfind("pool-", 0) == 0) saw_pool_thread = true;
  }
  EXPECT_TRUE(saw_pool_thread);

  // Every exchange carries round/device args.
  std::size_t exchange_spans = 0;
  for (const ProfileEvent& e : snapshot.events) {
    if (e.type != ProfileEvent::Type::kComplete ||
        std::string(e.name) != "exchange") {
      continue;
    }
    ++exchange_spans;
    ASSERT_EQ(e.num_args, 3);
    EXPECT_STREQ(e.arg_names[0], "round");
    EXPECT_STREQ(e.arg_names[1], "device");
  }
  EXPECT_EQ(exchange_spans, config().rounds * config().devices_per_round);
}

// Each phase span times the same interval as the RoundTrace field it
// stands for: one clock read at each end feeds both, so they differ only
// by the span's truncation to whole microseconds.
TEST_F(ProfilerTest, PhaseSpansMatchTheRoundTrace) {
  TrainerConfig c = config();
  c.algorithm = Algorithm::kFedDane;  // adds the feddane_correction phase
  testing::ScopedTempDir dir;
  c.checkpoint.dir = dir.path();
  c.checkpoint.every = 2;
  TraceCollector collector;
  const auto snapshot = run_profiled_trainer(c, &collector);

  std::map<std::size_t, const RoundTrace*> traces;
  for (const RoundTrace& trace : collector.traces()) {
    traces[trace.round] = &trace;
  }
  const std::map<std::string, double RoundTrace::*> plain_fields = {
      {"sampling", &RoundTrace::sampling_seconds},
      {"feddane_correction", &RoundTrace::correction_seconds},
      {"solve_parallel", &RoundTrace::solve_wall_seconds},
      {"aggregate", &RoundTrace::aggregate_seconds},
      {"eval", &RoundTrace::eval_seconds},
      {"round", &RoundTrace::round_seconds},
  };
  std::map<std::string, std::size_t> matched;
  for (const ProfileEvent& e : snapshot.events) {
    if (e.type != ProfileEvent::Type::kComplete) continue;
    const std::string name = e.name;
    const auto field = plain_fields.find(name);
    if (field == plain_fields.end() && name != "checkpoint") continue;
    ASSERT_GE(e.num_args, 1) << name;
    ASSERT_STREQ(e.arg_names[0], "round") << name;
    const auto round = static_cast<std::size_t>(e.arg_values[0]);
    ASSERT_TRUE(traces.count(round)) << name << " round " << round;
    const RoundTrace& trace = *traces.at(round);
    const double seconds = field != plain_fields.end()
                               ? trace.*(field->second)
                               : trace.checkpoint.write_seconds;
    EXPECT_NEAR(static_cast<double>(e.dur_us), seconds * 1e6, 1.0)
        << name << " span of round " << round;
    ++matched[name];
  }
  const std::size_t rounds = c.rounds;
  EXPECT_EQ(matched["round"], rounds + 1);  // round 0 included
  EXPECT_EQ(matched["eval"], rounds + 1);
  EXPECT_EQ(matched["checkpoint"], rounds / c.checkpoint.every);
  for (const char* phase :
       {"sampling", "feddane_correction", "solve_parallel", "aggregate"}) {
    EXPECT_EQ(matched[phase], rounds) << phase;
  }
}

TEST_F(ProfilerTest, CompleteEventsNestPerThread) {
  const auto snapshot = run_profiled_trainer();

  // X events: stack check per thread (drain order is parent-first).
  // tools/trace_lint --chrome pairs the flow events.
  std::map<std::uint32_t, std::vector<const ProfileEvent*>> by_tid;
  for (const ProfileEvent& e : snapshot.events) {
    if (e.type == ProfileEvent::Type::kComplete) by_tid[e.tid].push_back(&e);
  }
  for (const auto& [tid, events] : by_tid) {
    std::vector<std::uint64_t> open_ends;
    for (const ProfileEvent* e : events) {
      while (!open_ends.empty() && open_ends.back() <= e->start_us) {
        open_ends.pop_back();
      }
      const std::uint64_t end = e->start_us + e->dur_us;
      if (!open_ends.empty()) {
        EXPECT_LE(end, open_ends.back())
            << "span " << e->name << " overlaps without nesting on tid "
            << tid;
      }
      open_ends.push_back(end);
    }
  }
}

TEST_F(ProfilerTest, ProfilingDoesNotChangeTrainingResults) {
  LogisticRegression model(data().input_dim, data().num_classes);
  const TrainHistory plain = Trainer(model, data(), config()).run();
  Profiler::instance().enable();
  const TrainHistory profiled = Trainer(model, data(), config()).run();
  Profiler::instance().disable();
  Profiler::instance().discard();

  ASSERT_EQ(plain.final_parameters.size(), profiled.final_parameters.size());
  for (std::size_t i = 0; i < plain.final_parameters.size(); ++i) {
    EXPECT_EQ(plain.final_parameters[i], profiled.final_parameters[i]);
  }
}

TEST_F(ProfilerTest, KernelSpanMacroMatchesBuildMode) {
  Profiler::instance().enable();
  {
    FED_PROFILE_KERNEL_SPAN("kernel_probe", "kernel");
  }
  Profiler::instance().disable();
  const auto snapshot = Profiler::instance().drain();
  std::size_t kernel_events = 0;
  for (const ProfileEvent& e : snapshot.events) {
    if (std::string(e.name) == "kernel_probe") ++kernel_events;
  }
  EXPECT_EQ(kernel_events, kProfileKernels ? 1u : 0u);
}

}  // namespace
}  // namespace fed
