#include "common/config.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/config_build.hpp"

namespace msim {
namespace {

KvConfig parse(std::initializer_list<std::string> words) {
  std::vector<std::string> v(words);
  return KvConfig::parse_strings(v);
}

TEST(KvConfig, ParsesKeyValuePairs) {
  const KvConfig c = parse({"iq=64", "name=foo"});
  EXPECT_TRUE(c.has("iq"));
  EXPECT_TRUE(c.has("name"));
  EXPECT_FALSE(c.has("missing"));
  EXPECT_EQ(c.get_string("name", ""), "foo");
}

TEST(KvConfig, RejectsBareWords) {
  EXPECT_THROW(parse({"novalue"}), std::invalid_argument);
  EXPECT_THROW(parse({"=value"}), std::invalid_argument);
}

TEST(KvConfig, TypedGettersWithFallbacks) {
  const KvConfig c = parse({"i=-5", "u=7", "d=2.5", "b=true"});
  EXPECT_EQ(c.get_int("i", 0), -5);
  EXPECT_EQ(c.get_uint("u", 0), 7u);
  EXPECT_DOUBLE_EQ(c.get_double("d", 0.0), 2.5);
  EXPECT_TRUE(c.get_bool("b", false));
  EXPECT_EQ(c.get_int("absent", 42), 42);
  EXPECT_EQ(c.get_uint("absent", 43), 43u);
  EXPECT_DOUBLE_EQ(c.get_double("absent", 4.5), 4.5);
  EXPECT_FALSE(c.get_bool("absent", false));
}

TEST(KvConfig, BooleanSpellings) {
  const KvConfig c = parse({"a=1", "b=yes", "c=on", "d=0", "e=no", "f=off"});
  EXPECT_TRUE(c.get_bool("a", false));
  EXPECT_TRUE(c.get_bool("b", false));
  EXPECT_TRUE(c.get_bool("c", false));
  EXPECT_FALSE(c.get_bool("d", true));
  EXPECT_FALSE(c.get_bool("e", true));
  EXPECT_FALSE(c.get_bool("f", true));
}

TEST(KvConfig, MalformedNumbersThrow) {
  const KvConfig c = parse({"x=12abc", "b=maybe"});
  EXPECT_THROW((void)c.get_int("x", 0), std::invalid_argument);
  EXPECT_THROW((void)c.get_bool("b", false), std::invalid_argument);
}

TEST(KvConfig, UintListParsing) {
  const KvConfig c = parse({"sizes=32,48,64"});
  const auto sizes = c.get_uint_list("sizes", {});
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 32u);
  EXPECT_EQ(sizes[1], 48u);
  EXPECT_EQ(sizes[2], 64u);
  const auto fallback = c.get_uint_list("absent", {1, 2});
  ASSERT_EQ(fallback.size(), 2u);
}

TEST(KvConfig, UintListRejectsEmptyElements) {
  const KvConfig c = parse({"sizes=32,,64"});
  EXPECT_THROW((void)c.get_uint_list("sizes", {}), std::invalid_argument);
}

TEST(KvConfig, CheckedUintRejectsValuesThatDoNotFitTheType) {
  const KvConfig c = parse({"a=4294967296", "b=4294967295", "c=65536",
                            "list=32,4294967296"});
  EXPECT_THROW((void)c.get_uint<std::uint32_t>("a", 0), std::invalid_argument);
  EXPECT_EQ(c.get_uint<std::uint32_t>("b", 0), 4294967295u);
  EXPECT_THROW((void)c.get_uint<std::uint16_t>("c", 0), std::invalid_argument);
  EXPECT_EQ(c.get_uint("a", 0), 4294967296u);  // fits the 64-bit default
  EXPECT_THROW((void)c.get_uint_list<std::uint32_t>("list", {}),
               std::invalid_argument);
  try {
    (void)c.get_uint<std::uint32_t>("a", 0);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'a'"), std::string::npos);
  }
}

TEST(KvConfig, LastDuplicateWins) {
  const KvConfig c = parse({"k=1", "k=2"});
  EXPECT_EQ(c.get_int("k", 0), 2);
}

TEST(KvConfig, UnknownKeysDetection) {
  const KvConfig c = parse({"iq=64", "typo=1"});
  const std::array<std::string_view, 2> known{"iq", "horizon"};
  const auto unknown = c.unknown_keys({known.data(), known.size()});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(KvConfig, ParseFromArgv) {
  const char* argv[] = {"a=1", "b=two"};
  const KvConfig c = KvConfig::parse({argv, 2});
  EXPECT_EQ(c.get_int("a", 0), 1);
  EXPECT_EQ(c.get_string("b", ""), "two");
}

// ---- sim::build_job: the one builder msim_cli and msim_serve share ---------

std::string build_job_error(const std::vector<std::string>& words) {
  try {
    (void)sim::build_job(KvConfig::parse_strings(words), /*default_jobs=*/1);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(BuildJob, RejectsWhatCannotRunNamingTheKnob) {
  const std::pair<std::vector<std::string>, const char*> cases[] = {
      {{"sweep=2", "jobs=4294967296"}, "jobs"},
      {{"sweep=2", "jobs=0"}, "jobs"},
      {{"sweep=4294967298"}, "sweep"},
      {{"sweep=7"}, "sweep"},
      {{"iq=4294967360"}, "iq"},
      {{"sweep=2", "cell_timeout_ms=5"}, "cell_timeout_ms"},
      {{"sweep=2", "isolation=process", "chaos=kill@999"}, "chaos"},
      {{"sweep=2", "workers=2", "chaos=kill@99999999999999999999999"}, "chaos"},
      {{"sweep=2", "isolation=process", "isolate=0"}, "isolate"},
      {{"sweep=2", "iq=abc"}, "iq"},
      {{"mode=bogus"}, "mode"},
      {{"mode=sampled", "sweep=2"}, "sampled"},
      {{"mode=sampled", "region=0"}, "region"},
      {{"horizon=0"}, "horizon"},
  };
  for (const auto& [words, knob] : cases) {
    const std::string error = build_job_error(words);
    EXPECT_NE(error.find(knob), std::string::npos)
        << words.front() << " ...: '" << error << "'";
  }
}

TEST(BuildJob, DefaultJobsAppliesOnlyWhenJobsIsAbsent) {
  EXPECT_EQ(sim::build_job(parse({"sweep=2"}), 7).sweep.jobs, 7u);
  EXPECT_EQ(sim::build_job(parse({"sweep=2", "jobs=3"}), 7).sweep.jobs, 3u);
  EXPECT_EQ(sim::build_job(parse({"mode=sampled"}), 5).sampled.jobs, 5u);
  EXPECT_EQ(sim::build_job(parse({"mode=sampled", "jobs=2"}), 5).sampled.jobs,
            2u);
}

TEST(BuildJob, SampledKnobsLandInTheSampledConfig) {
  sim::JobSpec spec = sim::build_job(
      parse({"mode=sampled", "region=10000", "detail_warmup=300", "pilot=0",
             "iq=48"}),
      1);
  EXPECT_EQ(spec.mode, sim::JobMode::kSampled);
  EXPECT_EQ(spec.sampled.region_length, 10000u);
  EXPECT_EQ(spec.sampled.detail_warmup, 300u);
  EXPECT_EQ(spec.sampled.pilot, 0u);
  EXPECT_EQ(&spec.config(), &spec.built.config);
  EXPECT_EQ(spec.config().iq_entries, 48u);
}

TEST(BuildJob, SweepSpecMatchesBuildSweepRequest) {
  const KvConfig kv = parse({"sweep=3", "sched=2op_block,2op_block_ooo",
                             "iq=32,64", "isolation=process", "workers=2",
                             "retries=2", "cell_timeout_ms=100", "chaos=kill@1",
                             "horizon=1000", "seed=5", "jobs=4"});
  sim::JobSpec spec = sim::build_job(kv, 1);
  const sim::BuiltRun built = sim::build_run_config(kv);
  const sim::SweepRequest want =
      sim::build_sweep_request(kv, built.config, 3, 4);
  ASSERT_EQ(spec.mode, sim::JobMode::kSweep);
  EXPECT_EQ(&spec.config(), &spec.sweep.base);
  const sim::SweepRequest& got = spec.sweep;
  EXPECT_EQ(got.thread_count, want.thread_count);
  EXPECT_EQ(got.kinds, want.kinds);
  EXPECT_EQ(got.iq_sizes, want.iq_sizes);
  EXPECT_EQ(got.jobs, want.jobs);
  EXPECT_EQ(got.isolation, want.isolation);
  EXPECT_EQ(got.workers, want.workers);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.isolate_failures, want.isolate_failures);
  EXPECT_EQ(got.cell_timeout_ms, want.cell_timeout_ms);
  EXPECT_EQ(got.chaos, want.chaos);
  EXPECT_EQ(got.base.fingerprint(), want.base.fingerprint());
}

TEST(BuildJob, ExactRunCarriesItsSchedulerAndIq) {
  sim::JobSpec spec =
      sim::build_job(parse({"sched=2op_block_ooo", "iq=96"}), 1);
  EXPECT_EQ(spec.mode, sim::JobMode::kRun);
  EXPECT_EQ(spec.config().kind, core::SchedulerKind::kTwoOpBlockOoo);
  EXPECT_EQ(spec.config().iq_entries, 96u);
}

}  // namespace
}  // namespace msim
