// wsdbench: runs one workload for a fixed window and writes its raw
// measurements (samples, counters, checks) as JSON plus, in traced runs,
// the recorded spans as TSV. run.py turns both into the named metrics.
//
//   wsdbench --workload census_mapped --seed 1 --seconds 10 --trace 0
//            --workdir .bench_work/x --out raw.json [--spans spans.tsv]
#include <cstdio>
#include <filesystem>
#include <string>

#include "common.h"
#include "common/parallel.h"
#include "common/string_util.h"

using namespace wsdbench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wsdbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR --out FILE [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string out_path, spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.workdir.empty() || out_path.empty() ||
      args.seconds <= 0) {
    return Usage();
  }
  // Set-up is repeated and its median reported (the shorter set-ups more
  // often); a traced run needs only the spans of one set-up.
  args.setup_reps = args.trace                           ? 1
                    : args.workload == "stream_durable" ? 9
                    : args.workload == "census_serve"   ? 5
                                                        : 3;
  std::filesystem::create_directories(args.workdir);

  RunOutput out;
  out.workload = args.workload;
  out.seed = args.seed;
  out.trace = args.trace ? 1 : 0;
  Tracer::Get().set_enabled(args.trace);
  Status st;
  if (args.workload == "census_mapped") {
    st = RunCensusMapped(args, &out);
  } else if (args.workload == "census_serve") {
    st = RunCensusServe(args, &out);
  } else if (args.workload == "stream_durable") {
    st = RunStreamDurable(args, &out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Tracer::Get().set_enabled(false);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: run aborted: %s\n", args.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  out.config["setup_reps"] = std::to_string(args.setup_reps);
  // Intra-query parallelism is left at the engine's defaults; record them.
  const maybms::sql::SessionOptions defaults;
  out.config["engine_threads"] = maybms::StrFormat(
      "conf.num_threads=%zu approx.num_threads=%zu exec.num_threads=%zu "
      "(0 = one per core: %zu)",
      defaults.conf.num_threads, defaults.approx.num_threads,
      defaults.exec.num_threads, maybms::DefaultNumThreads());
  out.config["seconds"] = std::to_string(args.seconds);
  if (!(st = out.WriteJson(out_path)).ok() ||
      (!spans_path.empty() &&
       !(st = Tracer::Get().WriteTsv(spans_path)).ok())) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
