// CLI argument-validation contract: bad invocations must exit non-zero AND
// say what was wrong on stderr. Each case spawns the real supmr binary
// (SUPMR_CLI_PATH is injected by CMake) with stderr folded into the captured
// stream, so these assertions cover the exact text a user sees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "common/json.hpp"

namespace supmr {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CliResult run_cli(const std::string& args) {
  const std::string cmd = std::string(SUPMR_CLI_PATH) + " " + args + " 2>&1";
  CliResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[512];
  std::size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

void expect_rejected(const std::string& args, const std::string& expected_msg) {
  const CliResult r = run_cli(args);
  EXPECT_NE(r.exit_code, 0) << "supmr " << args << "\n" << r.output;
  EXPECT_NE(r.output.find(expected_msg), std::string::npos)
      << "supmr " << args << " should mention \"" << expected_msg
      << "\"; got:\n" << r.output;
}

TEST(CliValidation, PartitionedMergeIsRejected) {
  // The partitioned merge and its --partitions flag are gone; only specs
  // still parse them. Validation runs before the input file is opened, so
  // no corpus is needed.
  expect_rejected("sort nonexistent.dat --merge=partitioned",
                  "unknown merge mode: partitioned (want pairwise|pway)");
  expect_rejected("sort nonexistent.dat --partitions=4",
                  "unknown flag --partitions");
}

TEST(CliValidation, SortRejectsImpossibleGeometry) {
  // Accepted, each would crash or read past a record: record_bytes 0
  // divides by zero, 1 reads rec[-1] in the terminator check, and a key
  // longer than the record overruns every comparison.
  expect_rejected("sort nonexistent.dat --record-bytes=0",
                  "--record-bytes must be in [3, 4294967295], got 0");
  expect_rejected("sort nonexistent.dat --record-bytes=1",
                  "--record-bytes must be in [3, 4294967295], got 1");
  expect_rejected("sort nonexistent.dat --record-bytes=4294967296",
                  "--record-bytes must be in [3, 4294967295], got 4294967296");
  expect_rejected(
      "sort nonexistent.dat --key-bytes=400",
      "--key-bytes must be in [1, 98] for --record-bytes=100, got 400");
  expect_rejected(
      "sort nonexistent.dat --key-bytes=99",
      "--key-bytes must be in [1, 98] for --record-bytes=100, got 99");
  expect_rejected(
      "sort nonexistent.dat --key-bytes=0 --record-bytes=12",
      "--key-bytes must be in [1, 10] for --record-bytes=12, got 0");
}

// A sort spec with the given params; the rest is a valid cell.
std::string write_sort_spec(const std::string& name, const std::string& key,
                            const std::string& record) {
  const std::string path = ::testing::TempDir() + "/" + name;
  FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  const std::string spec =
      "{\"app\": \"sort\",\n"
      " \"corpus\": {\"kind\": \"terasort\", \"bytes\": 10000, \"seed\": 1,"
      " \"num_files\": 6},\n"
      " \"params\": {\"key_bytes\": " + key + ", \"record_bytes\": " + record +
      ", \"app_partitions\": 0, \"hist_lo\": 0, \"hist_hi\": 256,"
      " \"hist_bins\": 32, \"grep_patterns\": \"th\","
      " \"memory_budget\": 0},\n"
      " \"cell\": {\"mode\": \"supmr\", \"merge\": \"pway\", \"threads\": 2,"
      " \"merge_partitions\": 0, \"chunk_bytes\": 16384, \"files_per_chunk\":"
      " 3, \"degrade\": false, \"fault_plan\": \"\", \"retry_attempts\": 1}}";
  std::fputs(spec.c_str(), f);
  std::fclose(f);
  return path;
}

TEST(CliValidation, ReplaySpecRejectsImpossibleSortGeometry) {
  // The sort apps take both params as 32-bit options.
  const std::string long_key =
      write_sort_spec("long_key_spec.json", "400", "100");
  expect_rejected("replay " + long_key,
                  "replay spec: params.key_bytes must be in [1, 98] for "
                  "params.record_bytes=100, got 400");
  std::remove(long_key.c_str());
  const std::string wide =
      write_sort_spec("wide_record_spec.json", "10", "4294967396");
  expect_rejected("replay " + wide,
                  "replay spec: params.record_bytes must be in "
                  "[3, 4294967295], got 4294967396");
  std::remove(wide.c_str());
}

TEST(CliValidation, DegradeRequiresFaultPlan) {
  expect_rejected("wordcount nonexistent.txt --degrade",
                  "--degrade requires --fault-plan");
}

TEST(CliValidation, DegradeWithFaultPlanPassesValidation) {
  // With a plan the flag combination is accepted; the failure (if any) must
  // come later, from the missing input file — not from flag validation.
  const CliResult r = run_cli(
      "wordcount nonexistent.txt --degrade --fault-plan=permanent=0-10");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_EQ(r.output.find("--degrade requires"), std::string::npos)
      << r.output;
}

TEST(CliValidation, UnknownFlagNamesTheFlag) {
  expect_rejected("wordcount whatever --no-such-flag=1",
                  "unknown flag --no-such-flag");
  // Each subcommand accepts only the flags it reads; another subcommand's
  // flag is an error, not a silently ignored no-op.
  expect_rejected("index a b --nodes=2", "unknown flag --nodes");
  expect_rejected("kmeans p.txt --nodes=3", "unknown flag --nodes");
  expect_rejected("kmeans p.txt --trace=x.csv", "unknown flag --trace");
  expect_rejected("sort t.dat --budget=1KB --top=3", "unknown flag --budget");
  expect_rejected("wordcount c.txt --out=x --key-bytes=5",
                  "unknown flag --out");
  expect_rejected("replay spec.json --threads=8 --merge=pairwise",
                  "unknown flag --threads");
}

TEST(CliValidation, BadEnumValuesAreNamed) {
  // The shared enum-name tables (common/enum_names.hpp) name the bad value
  // AND list what would have been accepted.
  expect_rejected("wordcount whatever --mode=warp",
                  "unknown exec mode: warp (want original|supmr)");
  // The removed adaptive mode is not a CLI mode; only old specs still
  // name it (ReplaySpec.RemovedAdaptiveModeParsesAsSupmr).
  expect_rejected("wordcount whatever --mode=adaptive",
                  "unknown exec mode: adaptive (want original|supmr)");
  expect_rejected("wordcount whatever --merge=psychic",
                  "unknown merge mode: psychic (want pairwise|pway)");
  expect_rejected("wordcount whatever --io=psychic",
                  "unknown io mode: psychic (want read|mmap)");
}

// Writes a replay spec for `app` whose cell still carries the removed
// "container" key, set to `container`.
std::string write_container_spec(const std::string& app,
                                 const std::string& container) {
  const std::string path =
      ::testing::TempDir() + "/container_" + app + "_" + container + ".json";
  std::ofstream(path)
      << "{\"app\": \"" << app << "\",\n"
      << " \"corpus\": {\"kind\": \""
      << (app == "sort" ? "terasort" : "text")
      << "\", \"bytes\": 10000, \"seed\": 1, \"num_files\": 6},\n"
         " \"params\": {\"key_bytes\": 10, \"record_bytes\": 100,"
         " \"app_partitions\": 0, \"hist_lo\": 0, \"hist_hi\": 256,"
         " \"hist_bins\": 32, \"grep_patterns\": \"th\","
         " \"memory_budget\": 0},\n"
         " \"cell\": {\"mode\": \"supmr\", \"merge\": \"pway\","
         " \"container\": \""
      << container
      << "\", \"threads\": 2, \"merge_partitions\": 0,"
         " \"chunk_bytes\": 16384, \"files_per_chunk\": 3,"
         " \"degrade\": false, \"fault_plan\": \"\", \"retry_attempts\": 1}}";
  return path;
}

TEST(CliValidation, BadContainerModeIsNamed) {
  // The removed --container flag is an unknown flag; a spec's container
  // key still names a bad value.
  expect_rejected("wordcount whatever --container=combining",
                  "unknown flag --container");
  const std::string spec = write_container_spec("wordcount", "psychic");
  expect_rejected("replay " + spec,
                  "unknown container mode: psychic (want default|combining)");
  std::remove(spec.c_str());
}

// Writes a small real input file.
std::string write_temp_corpus(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs("alpha beta alpha\n", f);
  std::fclose(f);
  return path;
}

TEST(CliValidation, CombiningRejectedForAppsWithoutCombiner) {
  // A spec keeps the app list container=combining always had: grep and the
  // budgeted word count never accepted it, so their specs still fail.
  for (const char* app : {"grep", "xwordcount"}) {
    const std::string spec = write_container_spec(app, "combining");
    expect_rejected("replay " + spec, "declares no combiner");
    std::remove(spec.c_str());
  }
}

TEST(CliValidation, CombiningAcceptedForWordCount) {
  // "combining" names what word count always does, and "default" parses
  // for every app; the spec the replay prints holds no container key.
  for (const auto& [app, container] :
       {std::pair{"wordcount", "combining"}, std::pair{"sort", "default"}}) {
    const std::string spec = write_container_spec(app, container);
    const CliResult r = run_cli("replay " + spec);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("conformance: PASS"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("container"), std::string::npos) << r.output;
    std::remove(spec.c_str());
  }
}

TEST(CliValidation, ReplaySpecRejectsCombiningForCombinerlessApp) {
  const std::string spec = write_container_spec("sort", "combining");
  expect_rejected("replay " + spec, "declares no combiner");
  std::remove(spec.c_str());
}

TEST(CliValidation, ClusterNodesMustBePositive) {
  // --nodes=0 is a contradiction (a cluster of no nodes), not "disable":
  // disabling the cluster path is done by omitting the flag entirely.
  expect_rejected("wordcount whatever --nodes=0", "--nodes must be >= 1");
}

TEST(CliValidation, ClusterKnobsRequireNodes) {
  // Every fabric knob is meaningless without a cluster to apply it to;
  // silently ignoring it would hide a typo'd benchmark invocation.
  expect_rejected("wordcount whatever --node-link-bps=1MB",
                  "--node-link-bps requires --nodes");
  expect_rejected("wordcount whatever --uplink-bps=1MB",
                  "--uplink-bps requires --nodes");
  expect_rejected("sort whatever --node-disk-bps=1MB",
                  "--node-disk-bps requires --nodes");
  // The owner merge budget is gone: its flag is unknown.
  expect_rejected("sort whatever --node-budget=1MB",
                  "unknown flag --node-budget");
}

TEST(CliValidation, ClusterRejectsFaultAndThrottleCombos) {
  // Nodes read borrowed views of the input, not a device: a fault plan or
  // a global throttle on the (nonexistent) shared source device cannot
  // apply.
  expect_rejected(
      "wordcount whatever --nodes=2 --fault-plan=permanent=0-10",
      "--nodes does not combine with --fault-plan/--degrade");
  expect_rejected("wordcount whatever --nodes=2 --throttle=1MB",
                  "--nodes does not combine with --throttle");
  // The utilization trace samples one in-process job.
  expect_rejected("wordcount whatever --nodes=2 --trace=x.csv",
                  "--nodes does not combine with --trace");
}

TEST(CliValidation, ClusterCommandNeedsAClusterSpec) {
  const std::string path = ::testing::TempDir() + "/nodeless_cluster_spec.json";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(
      "{\"app\": \"wordcount\",\n"
      " \"corpus\": {\"kind\": \"text\", \"bytes\": 10000, \"seed\": 1,"
      " \"num_files\": 6},\n"
      " \"params\": {\"key_bytes\": 10, \"record_bytes\": 100,"
      " \"app_partitions\": 0, \"hist_lo\": 0, \"hist_hi\": 256,"
      " \"hist_bins\": 32, \"grep_patterns\": \"th\","
      " \"memory_budget\": 0},\n"
      " \"cell\": {\"mode\": \"supmr\", \"merge\": \"pway\", \"threads\": 2,"
      " \"merge_partitions\": 0, \"chunk_bytes\": 16384, \"files_per_chunk\":"
      " 3, \"degrade\": false, \"fault_plan\": \"\", \"retry_attempts\": 1}}",
      f);
  std::fclose(f);
  expect_rejected("cluster --spec=" + path,
                  "cluster needs a spec with cluster.nodes >= 1");
  std::remove(path.c_str());
}

TEST(CliValidation, ReplaySpecRejectsUnknownClusterKey) {
  // The cluster object is strict-keyed like every other spec section: a
  // typo'd knob ("nodez") must fail the parse, not silently default.
  const std::string path = ::testing::TempDir() + "/typo_cluster_spec.json";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(
      "{\"app\": \"wordcount\",\n"
      " \"corpus\": {\"kind\": \"text\", \"bytes\": 10000, \"seed\": 1,"
      " \"num_files\": 6},\n"
      " \"params\": {\"key_bytes\": 10, \"record_bytes\": 100,"
      " \"app_partitions\": 0, \"hist_lo\": 0, \"hist_hi\": 256,"
      " \"hist_bins\": 32, \"grep_patterns\": \"th\","
      " \"memory_budget\": 0},\n"
      " \"cell\": {\"mode\": \"supmr\", \"merge\": \"pway\", \"threads\": 2,"
      " \"merge_partitions\": 0, \"chunk_bytes\": 16384, \"files_per_chunk\":"
      " 3, \"degrade\": false, \"fault_plan\": \"\", \"retry_attempts\": 1},\n"
      " \"cluster\": {\"nodez\": 2}}",
      f);
  std::fclose(f);
  expect_rejected("replay " + path, "replay spec: unknown key");
  std::remove(path.c_str());
}

TEST(CliValidation, ReplaySpecClusterKnobsRequireNodes) {
  const std::string path = ::testing::TempDir() + "/knobs_no_nodes_spec.json";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(
      "{\"app\": \"wordcount\",\n"
      " \"corpus\": {\"kind\": \"text\", \"bytes\": 10000, \"seed\": 1,"
      " \"num_files\": 6},\n"
      " \"params\": {\"key_bytes\": 10, \"record_bytes\": 100,"
      " \"app_partitions\": 0, \"hist_lo\": 0, \"hist_hi\": 256,"
      " \"hist_bins\": 32, \"grep_patterns\": \"th\","
      " \"memory_budget\": 0},\n"
      " \"cell\": {\"mode\": \"supmr\", \"merge\": \"pway\", \"threads\": 2,"
      " \"merge_partitions\": 0, \"chunk_bytes\": 16384, \"files_per_chunk\":"
      " 3, \"degrade\": false, \"fault_plan\": \"\", \"retry_attempts\": 1},\n"
      " \"cluster\": {\"nodes\": 0, \"link_bps\": 1000000}}",
      f);
  std::fclose(f);
  expect_rejected(
      "replay " + path,
      "replay spec: cluster bandwidth knobs require cluster.nodes");
  std::remove(path.c_str());
}

TEST(CliValidation, RetryAttemptsMustBePositive) {
  expect_rejected("wordcount whatever --retry-attempts=0",
                  "--retry-attempts must be >= 1");
}

TEST(CliValidation, MalformedSizesAndNumbers) {
  expect_rejected("wordcount whatever --chunk=banana", "bad size for --chunk");
  expect_rejected("wordcount whatever --chunk=nan", "bad size for --chunk");
  expect_rejected("wordcount whatever --threads=many",
                  "bad integer for --threads");
  // A negative or out-of-range count is a flag error (exit 1), not a
  // wrapped thread count that aborts the process.
  for (const char* threads : {"-1", "99999999999999999999"}) {
    const std::string args = std::string("wordcount whatever --threads=") +
                             threads;
    expect_rejected(args, "bad integer for --threads");
    EXPECT_EQ(run_cli(args).exit_code, 1) << "supmr " << args;
  }
  // Every thread starts at once, so a count past core::kMaxThreads is
  // rejected before the input is opened.
  expect_rejected("wordcount nonexistent.txt --threads=1025",
                  "--threads=1025 starts more than 1024 threads");
  expect_rejected("wordcount nonexistent.txt --nodes=8 --threads=256",
                  "--threads=256 x --nodes=8 starts more than 1024 threads");
  expect_rejected("wordcount whatever --retry-attempts=-1",
                  "bad integer for --retry-attempts");
  // Zero bins would divide by zero in the histogram app, and an empty
  // range would count every value out of range.
  expect_rejected("histogram whatever --bins=0",
                  "histogram needs at least one bin");
  for (const char* range : {"--lo=5 --hi=5", "--lo=10 --hi=5"}) {
    const std::string args = std::string("histogram whatever ") + range;
    expect_rejected(args, "histogram needs lo < hi");
    EXPECT_EQ(run_cli(args).exit_code, 1) << "supmr " << args;
  }
}

TEST(CliValidation, UnknownCommand) {
  expect_rejected("transmogrify foo", "unknown command: transmogrify");
}

TEST(CliValidation, ReplayNeedsAReadableSpec) {
  expect_rejected("replay", "replay needs a spec file");
  expect_rejected("--replay", "--replay needs a spec file");
  {
    const CliResult r = run_cli("replay /nonexistent/repro.json");
    EXPECT_NE(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
  }
}

TEST(CliValidation, ServeRejectsOutOfRangeIntegers) {
  // A number past the field's range is a spec error (exit 1), not an
  // uncaught exception that aborts the process.
  const std::string path = ::testing::TempDir() + "/huge_threads_serve.json";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"jobs\": [{\"threads\": 99999999999999999999, \"spec\": {}}]}",
             f);
  std::fclose(f);
  const CliResult r = run_cli("serve --jobs=" + path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("serve spec: threads: expected an integer"),
            std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

TEST(CliValidation, ReplayRejectsMalformedSpec) {
  const std::string path = ::testing::TempDir() + "/bad_replay_spec.json";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"app\": \"wordcount\", \"mystery\": 1}", f);
  std::fclose(f);
  const CliResult r = run_cli("replay " + path);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

// Differential over the CLI's run paths: every flag below routes the same
// job through a different construction path (merge, io, mode, chunking,
// the spill budget, the cluster runtime), and all of them must produce the
// same output bytes.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(CliRunPaths, SortOutputIsIdenticalAcrossFlags) {
  const std::string dir = ::testing::TempDir();
  const std::string input = dir + "/cli_paths_tera.dat";
  ASSERT_EQ(run_cli("generate terasort " + input + " --size=2MB").exit_code,
            0);
  const std::vector<std::string> variants = {
      "--merge=pway",    "--merge=pairwise", "--io=mmap",
      "--mode=original", "--chunk=none",     "--nodes=2",
      "--nodes=2 --merge=pairwise"};
  std::string expected;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const std::string out = dir + "/cli_paths_sorted.dat";
    const std::string args = "sort " + input + " --threads=2 --chunk=256KB " +
                             variants[i] + " --out=" + out;
    const CliResult r = run_cli(args);
    ASSERT_EQ(r.exit_code, 0) << "supmr " << args << "\n" << r.output;
    const std::string sorted = read_file(out);
    std::remove(out.c_str());
    if (i == 0) {
      expected = sorted;
      ASSERT_EQ(expected.size(), read_file(input).size());
      for (std::size_t rec = 100; rec < expected.size(); rec += 100) {
        ASSERT_LE(expected.compare(rec - 100, 10, expected, rec, 10), 0)
            << "keys decrease at record " << rec / 100;
      }
    }
    EXPECT_TRUE(sorted == expected) << "supmr " << args;
  }
  std::remove(input.c_str());
}

// The "<count>  <word>" lines of a wordcount run, sorted.
std::vector<std::string> word_lines(const std::string& output) {
  std::vector<std::string> lines;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t digits = line.find_first_not_of(' ');
    const std::size_t sep = line.find("  ", digits);
    if (digits == std::string::npos || sep == std::string::npos ||
        line.find_first_not_of("0123456789", digits) != sep) {
      continue;
    }
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(CliRunPaths, WordCountIsIdenticalAcrossFlags) {
  const std::string dir = ::testing::TempDir();
  const std::string input = dir + "/cli_paths_corpus.txt";
  ASSERT_EQ(run_cli("generate text " + input + " --size=1MB").exit_code, 0);
  const std::vector<std::string> variants = {
      "", "--budget=32KB", "--io=mmap", "--merge=pairwise"};
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const std::string args = "wordcount " + input +
                             " --threads=2 --chunk=128KB --top=100000 " +
                             variants[i];
    const CliResult r = run_cli(args);
    ASSERT_EQ(r.exit_code, 0) << "supmr " << args << "\n" << r.output;
    const std::vector<std::string> lines = word_lines(r.output);
    if (i == 0) {
      expected = lines;
      ASSERT_GT(expected.size(), 1000u);
    }
    EXPECT_TRUE(lines == expected) << "supmr " << args;
  }
  std::remove(input.c_str());
}

// The CLI, not each job, writes --metrics-json once the whole run is done:
// under --nodes the file holds the cluster's shuffle accounting, which no
// single node's job sees.
TEST(CliRunPaths, ClusterMetricsFileHoldsTheShuffle) {
  const std::string dir = ::testing::TempDir();
  const std::string input = dir + "/cli_obs_corpus.txt";
  const std::string metrics = dir + "/cli_obs_metrics.json";
  ASSERT_EQ(run_cli("generate text " + input + " --size=1MB").exit_code, 0);
  std::remove(metrics.c_str());
  const std::string args = "wordcount " + input +
                           " --nodes=2 --chunk=64KB --metrics-json=" + metrics;
  const CliResult r = run_cli(args);
  ASSERT_EQ(r.exit_code, 0) << "supmr " << args << "\n" << r.output;
  const std::string text = read_file(metrics);
  EXPECT_TRUE(parse_json(text).ok()) << text;
  EXPECT_NE(text.find("\"cluster.shuffle_bytes\""), std::string::npos)
      << text;
  std::remove(metrics.c_str());
  std::remove(input.c_str());
}

// A metrics or trace file the CLI cannot write fails the run, like an
// unwritable sort --out.
TEST(CliValidation, UnwritableObsFileExitsOne) {
  const std::string corpus = write_temp_corpus("cli_obs_unwritable.txt");
  for (const std::string flag : {"--metrics-json", "--trace-out"}) {
    const std::string args =
        "wordcount " + corpus + " " + flag + "=/nonexistent/dir/out.json";
    const CliResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 1) << "supmr " << args << "\n" << r.output;
    EXPECT_NE(r.output.find("/nonexistent/dir/out.json"), std::string::npos)
        << r.output;
  }
  std::remove(corpus.c_str());
}

}  // namespace
}  // namespace supmr
