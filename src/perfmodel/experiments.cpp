#include "perfmodel/experiments.hpp"

namespace supmr::perfmodel {

namespace {

SimJobSpec wordcount_spec(std::uint64_t chunk_bytes) {
  SimJobSpec spec;
  spec.machine = paper_machine();
  spec.dataset = wload::paper_wordcount_dataset();
  spec.app = wordcount_model(spec.dataset);
  spec.chunk_bytes = chunk_bytes;
  // Word count's merge output is tiny either way; the original runtime's
  // pairwise algorithm is kept for the baseline row.
  spec.merge_mode = chunk_bytes == 0 ? core::MergeMode::kPairwise
                                     : core::MergeMode::kPWay;
  return spec;
}

SimJobSpec sort_spec(std::uint64_t chunk_bytes, core::MergeMode mode) {
  SimJobSpec spec;
  spec.machine = paper_machine();
  spec.dataset = wload::paper_sort_dataset();
  spec.app = sort_model(spec.dataset);
  spec.chunk_bytes = chunk_bytes;
  spec.merge_mode = mode;
  return spec;
}

}  // namespace

std::vector<Table2Row> table2_wordcount() {
  std::vector<Table2Row> rows;
  rows.push_back({"none", simulate_job(wordcount_spec(0))});
  rows.push_back({"1GB", simulate_job(wordcount_spec(1 * kGB))});
  rows.push_back({"50GB", simulate_job(wordcount_spec(50 * kGB))});
  return rows;
}

std::vector<Table2Row> table2_sort() {
  std::vector<Table2Row> rows;
  rows.push_back(
      {"none", simulate_job(sort_spec(0, core::MergeMode::kPairwise))});
  rows.push_back(
      {"1GB", simulate_job(sort_spec(1 * kGB, core::MergeMode::kPWay))});
  return rows;
}

SimJobResult fig1_sort_baseline() {
  return simulate_job(sort_spec(0, core::MergeMode::kPairwise));
}

Fig3Result fig3_openmp_vs_mapreduce() {
  Fig3Result fig;
  fig.mapreduce = fig1_sort_baseline();

  // OpenMP-style app, modelled with the same constants (see
  // baseline::run_omp_style_sort for the real-mode twin):
  //   read: sequential full-bandwidth ingest incl. container page-in,
  //   parse: the map work on ONE thread,
  //   sort: parallel sample sort = run-formation pass + p-way merge pass.
  const SimJobSpec spec = sort_spec(0, core::MergeMode::kPWay);
  const double bytes = double(spec.dataset.total_bytes);
  PhaseBreakdown& p = fig.openmp;
  p.read_s = bytes / spec.machine.disk_bw_bps +
             bytes * spec.app.ingest_extra_cpu_s_per_byte;
  p.map_s = bytes * spec.app.map_cpu_s_per_byte;  // single-threaded parse
  const double traffic_s = double(spec.app.merge_records) *
                           spec.app.merge_record_bytes * 2.0 /
                           spec.machine.mem_stream_bw_bps;
  p.merge_s = traffic_s /* run formation */ +
              traffic_s * spec.machine.pway_stream_penalty /* p-way */;
  p.setup_s = spec.app.setup_cleanup_s;
  p.total_s = p.read_s + p.map_s + p.merge_s + p.setup_s;
  p.input_bytes = spec.dataset.total_bytes;

  fig.openmp_compute_s = p.merge_s;
  fig.mapreduce_compute_s = fig.mapreduce.phases.map_s +
                            fig.mapreduce.phases.reduce_s +
                            fig.mapreduce.phases.merge_s;
  return fig;
}

std::vector<std::pair<std::string, SimJobResult>> fig5_wordcount_traces() {
  std::vector<std::pair<std::string, SimJobResult>> traces;
  traces.emplace_back("none", simulate_job(wordcount_spec(0)));
  traces.emplace_back("1GB", simulate_job(wordcount_spec(1 * kGB)));
  traces.emplace_back("50GB", simulate_job(wordcount_spec(50 * kGB)));
  return traces;
}

SimJobResult fig6_sort_pway() {
  return simulate_job(sort_spec(1 * kGB, core::MergeMode::kPWay));
}

Fig7Result fig7_hdfs_casestudy() {
  Fig7Result fig;
  SimJobSpec spec;
  spec.machine = paper_machine();
  spec.dataset = wload::paper_hdfs_dataset();
  spec.app = wordcount_model(spec.dataset);
  spec.ingest_bw_override_bps = 125.0e6;  // one shared 1 Gb/s link

  // Original runtime: copy the 30 GB from the cluster onto the node, then
  // run the computation (paper §VI.C.3).
  spec.chunk_bytes = 0;
  spec.merge_mode = core::MergeMode::kPairwise;
  fig.original = simulate_job(spec);

  // SupMR: ingest chunks stream over the link in parallel with map.
  spec.chunk_bytes = 1 * kGB;
  spec.merge_mode = core::MergeMode::kPWay;
  fig.supmr = simulate_job(spec);

  fig.speedup_s = fig.original.phases.total_s - fig.supmr.phases.total_s;
  return fig;
}

std::vector<SweepPoint> chunk_size_sweep(
    const AppModel& app, const wload::VirtualDataset& dataset,
    core::MergeMode merge_mode, const std::vector<std::uint64_t>& sizes) {
  std::vector<SweepPoint> points;
  for (std::uint64_t size : sizes) {
    SimJobSpec spec;
    spec.machine = paper_machine();
    spec.dataset = dataset;
    spec.app = app;
    spec.chunk_bytes = size;
    spec.merge_mode = merge_mode;
    const SimJobResult r = simulate_job(spec);
    SweepPoint p;
    p.chunk_bytes = size;
    p.total_s = r.phases.total_s;
    p.readmap_s = r.phases.has_combined_readmap
                      ? r.phases.readmap_s
                      : r.phases.read_s + r.phases.map_s;
    p.mean_utilization = r.mean_utilization;
    p.threads_spawned = r.threads_spawned;
    points.push_back(p);
  }
  return points;
}

std::vector<FaninPoint> merge_fanin_sweep(
    const AppModel& app, const wload::VirtualDataset& d,
    const std::vector<std::size_t>& runs) {
  std::vector<FaninPoint> points;
  for (std::size_t r : runs) {
    SimJobSpec spec;
    spec.machine = paper_machine();
    spec.dataset = d;
    spec.app = app;
    spec.chunk_bytes = 0;
    spec.merge_runs = r;

    spec.merge_mode = core::MergeMode::kPairwise;
    const double pairwise = simulate_job(spec).phases.merge_s;
    spec.merge_mode = core::MergeMode::kPWay;
    const double pway = simulate_job(spec).phases.merge_s;
    points.push_back(FaninPoint{r, pairwise, pway});
  }
  return points;
}

}  // namespace supmr::perfmodel
