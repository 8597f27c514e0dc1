// Mutation fuzz for the text parsers that read untrusted input: the
// --faults and --churn specs (parse_fault_profile, parse_churn_config),
// a resumed run's Prometheus file (seed_counters_from_exposition) and
// LEAF JSON (parse_json). Like serialize_fuzz_test, each case mutates a
// valid seed thousands of times (bit flips, truncation, splices, and
// grammar tokens such as "nan", "1e999" or "[" spliced in) and requires
// every outcome to be a parse or the parser's documented exception type
// — never another type, a crash, or a sanitizer finding. The ASan/UBSan
// CI job runs this test. An accepted spec must also satisfy the
// validation the parser promises, so a NaN that slips past a range
// check fails here.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "comm/fault.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "sim/churn.h"
#include "support/json.h"
#include "support/rng.h"
#include "test_util.h"

namespace fed {
namespace {

constexpr std::size_t kSeeds = 4000;

// Fragments of the four grammars, plus the numbers parsers mishandle.
constexpr const char* kTokens[] = {
    ",", "=", ":", "{", "}", "[", "]", "\"", "\\", "\\u00", "#", " ",
    "\n", "-", "+", "e", ".", "0", "nan", "inf", "-inf", "1e999", "-1",
    "drop", "initial", "# TYPE x counter\n", "{kind=\"", "true", "null"};

// One deterministic mutation of `text`, chosen and parameterized by `rng`.
std::string mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  const auto at = [&] {
    return rng.uniform_int(std::uint64_t{out.size() + 1});
  };
  switch (rng.uniform_int(std::uint64_t{6})) {
    case 0: {  // flip 1..4 random bits
      const std::uint64_t flips = 1 + rng.uniform_int(std::uint64_t{4});
      for (std::uint64_t i = 0; i < flips && !out.empty(); ++i) {
        const std::uint64_t bit = rng.uniform_int(out.size() * 8);
        out[bit / 8] = static_cast<char>(out[bit / 8] ^ (1 << (bit % 8)));
      }
      break;
    }
    case 1:  // truncate to a prefix
      out.resize(rng.uniform_int(std::uint64_t{out.size() + 1}));
      break;
    case 2: {  // drop a middle chunk
      const std::uint64_t begin = at();
      const std::uint64_t len = rng.uniform_int(out.size() - begin + 1);
      out.erase(begin, len);
      break;
    }
    case 3: {  // copy a chunk elsewhere (repeats keys, nests brackets)
      const std::uint64_t begin = at();
      const std::uint64_t len = rng.uniform_int(out.size() - begin + 1);
      const std::string chunk = out.substr(begin, len);
      out.insert(at(), chunk);
      break;
    }
    case 4: {  // overwrite one byte with any value
      if (out.empty()) break;
      out[rng.uniform_int(std::uint64_t{out.size()})] =
          static_cast<char>(rng.uniform_int(std::uint64_t{256}));
      break;
    }
    default: {  // splice in 1..3 grammar tokens
      const std::uint64_t n = 1 + rng.uniform_int(std::uint64_t{3});
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t pick =
            rng.uniform_int(std::uint64_t{std::size(kTokens)});
        out.insert(at(), kTokens[pick]);
      }
      break;
    }
  }
  return out;
}

Rng stream(std::size_t seed, std::uint64_t parser) {
  return Rng(seed,
             {static_cast<std::uint64_t>(StreamKind::kTest), 100 + parser});
}

bool is_probability(double p) { return p >= 0.0 && p <= 1.0; }

TEST(TextParserFuzzTest, MutatedFaultSpecsParseOrThrowInvalidArgument) {
  const std::string spec = "drop=0.1,corrupt=0.01,delay_ms=50,duplicate=0.05";
  ASSERT_NO_THROW(parse_fault_profile(spec));
  std::size_t accepted = 0;
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng = stream(seed, 1);
    const std::string input = mutate(spec, rng);
    try {
      const FaultProfile p = parse_fault_profile(input);
      ++accepted;
      EXPECT_TRUE(is_probability(p.drop) && is_probability(p.corrupt) &&
                  is_probability(p.duplicate))
          << "accepted \"" << input << "\"";
      EXPECT_TRUE(std::isfinite(p.delay_ms) && p.delay_ms >= 0.0)
          << "accepted \"" << input << "\"";
    } catch (const std::invalid_argument&) {
    }
  }
  // Both outcomes must be exercised, or the corpus tests nothing.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kSeeds);
}

TEST(TextParserFuzzTest, MutatedChurnSpecsParseOrThrowInvalidArgument) {
  const std::string spec = "arrive=0.05,depart=0.02,initial=100,min_active=10";
  ASSERT_NO_THROW(parse_churn_config(spec));
  std::size_t accepted = 0;
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng = stream(seed, 2);
    const std::string input = mutate(spec, rng);
    try {
      const ChurnConfig c = parse_churn_config(input);
      ++accepted;
      EXPECT_TRUE(is_probability(c.arrive) && is_probability(c.depart))
          << "accepted \"" << input << "\"";
    } catch (const std::invalid_argument&) {
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kSeeds);
}

TEST(TextParserFuzzTest, NonFiniteAndFractionalCountsAreRejected) {
  for (const char* spec : {"drop=nan", "corrupt=-nan", "delay_ms=inf",
                           "delay_ms=nan"}) {
    EXPECT_THROW(parse_fault_profile(spec), std::invalid_argument) << spec;
  }
  for (const char* spec : {"arrive=nan", "initial=nan", "initial=inf",
                           "initial=1e300", "min_active=2.5",
                           "min_active=-1"}) {
    EXPECT_THROW(parse_churn_config(spec), std::invalid_argument) << spec;
  }
}

TEST(TextParserFuzzTest, MutatedExpositionsSeedWithoutThrowing) {
  MetricsRegistry source;
  MetricsObserver feeder(source);  // registers the real counter families
  RoundTrace trace;
  trace.solve.count = 4;
  trace.bytes_up = 1234;
  trace.bytes_down = 5678;
  trace.faults.drops = 2;
  trace.client_solve_seconds = {0.01, 0.02};
  RoundMetrics metrics;
  metrics.round = 1;
  feeder.on_round_end(metrics, trace);
  const std::string exposition = text_exposition(source);

  const testing::ScopedTempDir tmp;
  const std::string path = tmp.file("metrics.prom");
  {
    MetricsRegistry seeded;
    std::ofstream(path) << exposition;
    ASSERT_GT(seed_counters_from_exposition(seeded, path), 0u);
    EXPECT_EQ(seeded.counter("fed_comm_bytes_up_total").value(), 1234u);
  }
  // One file per input; fewer seeds, since each costs a write and a read.
  for (std::size_t seed = 0; seed < kSeeds / 4; ++seed) {
    Rng rng = stream(seed, 3);
    std::ofstream(path, std::ios::trunc) << mutate(exposition, rng);
    MetricsRegistry seeded;
    // Malformed lines are skipped, never fatal: nothing may throw.
    EXPECT_NO_THROW(seed_counters_from_exposition(seeded, path))
        << "mutation seed " << seed;
  }
  // A signed sample is not a counter value: strtoull would wrap it.
  std::ofstream(path, std::ios::trunc)
      << "# TYPE fed_rounds_total counter\nfed_rounds_total -5\n";
  MetricsRegistry seeded;
  EXPECT_EQ(seed_counters_from_exposition(seeded, path), 0u);
}

TEST(TextParserFuzzTest, MutatedJsonParsesOrThrowsRuntimeError) {
  const std::string document =
      R"({"users":["f_0","f_1"],"num_samples":[2,1],)"
      R"("user_data":{"f_0":{"x":[[0.5,-1.25e-3],[1,2E+2]],"y":[0,1]},)"
      R"("f_1":{"x":[[-0.0,3]],"y":[1]}},)"
      R"("meta":{"name":"a\"b\\cé\n","ok":true,"no":false,"z":null}})";
  ASSERT_NO_THROW(parse_json(document));
  std::size_t accepted = 0;
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng = stream(seed, 4);
    JsonValue value;
    try {
      value = parse_json(mutate(document, rng));
    } catch (const std::runtime_error&) {
      continue;
    }
    ++accepted;
    // Whatever parsed must serialize and parse back to itself.
    EXPECT_EQ(parse_json(serialize_json(value)), value)
        << "mutation seed " << seed;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kSeeds);
}

TEST(TextParserFuzzTest, DeeplyNestedJsonIsRejectedNotStackOverflowed) {
  const std::string deep_array(1'000'000, '[');
  std::string deep_object;  // {"a":{"a":... — a key before each value
  for (int i = 0; i < 200'000; ++i) deep_object += "{\"a\":";
  for (const std::string& deep : {deep_array, deep_object}) {
    EXPECT_THROW(parse_json(deep), std::runtime_error);
  }
  // Modest nesting still parses.
  EXPECT_NO_THROW(parse_json(std::string(64, '[') + std::string(64, ']')));
}

}  // namespace
}  // namespace fed
