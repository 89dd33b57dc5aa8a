#include "perfmodel/sim_job.hpp"

#include <cassert>
#include <cmath>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "sim/resource.hpp"
#include "sim/tracer.hpp"

namespace supmr::perfmodel {

namespace {

using sim::Category;
using sim::Stage;

// One simulation run's mutable state; methods chain through engine events.
class JobSim {
 public:
  explicit JobSim(const SimJobSpec& spec)
      : spec_(spec),
        machine_(engine_, sim::MachineConfig{spec.machine.contexts,
                                             spec.machine.thread_spawn_s,
                                             spec.machine.thread_join_s}),
        disk_(engine_, "disk", ingest_bw(), ingest_bw()) {
    machine_.attach_device(&disk_);
    plan_chunks();
  }

  SimJobResult run() {
    if (chunks_.size() == 1 && spec_.chunk_bytes == 0) {
      start_original();
    } else {
      start_pipeline();
    }
    engine_.run();
    return collect();
  }

 private:
  double ingest_bw() const {
    return spec_.ingest_bw_override_bps > 0 ? spec_.ingest_bw_override_bps
                                            : spec_.machine.disk_bw_bps;
  }

  void plan_chunks() {
    const std::uint64_t total = spec_.dataset.total_bytes;
    if (spec_.chunk_bytes == 0 || spec_.chunk_bytes >= total) {
      chunks_.push_back(total);
      return;
    }
    std::uint64_t off = 0;
    while (off < total) {
      chunks_.push_back(std::min(spec_.chunk_bytes, total - off));
      off += chunks_.back();
    }
  }

  // --- building blocks ------------------------------------------------

  void spawn_ingest(std::size_t chunk, std::function<void()> done) {
    std::vector<Stage> stages;
    stages.push_back(Stage::io(&disk_, double(chunks_[chunk])));
    const double extra =
        double(chunks_[chunk]) * spec_.app.ingest_extra_cpu_s_per_byte;
    if (extra > 0.0) stages.push_back(Stage::compute(extra, Category::kSys));
    machine_.spawn_thread(std::move(stages), std::move(done));
  }

  void spawn_map_wave(std::uint64_t bytes, std::function<void()> done) {
    const std::size_t mappers = spec_.num_mappers;
    auto join = sim::make_join(mappers, std::move(done));
    const double per_thread =
        double(bytes) * spec_.app.map_cpu_s_per_byte / double(mappers);
    for (std::size_t m = 0; m < mappers; ++m) {
      machine_.spawn_thread({Stage::compute(per_thread, Category::kUser)},
                            join);
    }
    ++map_rounds_;
  }

  void spawn_reduce(std::function<void()> done) {
    const std::size_t workers =
        static_cast<std::size_t>(spec_.machine.contexts);
    auto join = sim::make_join(workers, std::move(done));
    const double per_thread = double(spec_.app.reduce_items) *
                              spec_.app.reduce_cpu_s_per_item /
                              double(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      machine_.spawn_thread({Stage::compute(per_thread, Category::kUser)},
                            join);
    }
  }

  // Merge rounds are memory-stream bound: every record's bytes are read and
  // written once per round, so a round's wall time is its traffic over the
  // machine's stream bandwidth; each active worker is busy (stalled on
  // memory counts as user time) for the whole round.
  double round_traffic_s(double penalty) const {
    return double(spec_.app.merge_records) * spec_.app.merge_record_bytes *
           2.0 * penalty / spec_.machine.mem_stream_bw_bps;
  }

  void spawn_merge_round(std::size_t active, double wall,
                         std::function<void()> done) {
    active = std::min<std::size_t>(
        active, static_cast<std::size_t>(spec_.machine.contexts));
    auto join = sim::make_join(active, std::move(done));
    for (std::size_t w = 0; w < active; ++w) {
      machine_.spawn_thread({Stage::compute(wall, Category::kUser)}, join);
    }
    ++merge_rounds_;
  }

  void do_pairwise_round(std::size_t runs_left) {
    if (runs_left <= 1) {
      finish_merge();
      return;
    }
    const std::size_t pairs = runs_left / 2;
    spawn_merge_round(pairs, round_traffic_s(1.0),
                      [this, runs_left] {
                        do_pairwise_round((runs_left + 1) / 2);
                      });
  }

  void do_merge() {
    t_reduce_end_ = engine_.now();
    if (spec_.app.merge_records == 0) {
      finish_merge();
      return;
    }
    if (spec_.merge_mode == core::MergeMode::kPWay) {
      spawn_merge_round(static_cast<std::size_t>(spec_.machine.contexts),
                        round_traffic_s(spec_.machine.pway_stream_penalty),
                        [this] { finish_merge(); });
    } else {
      do_pairwise_round(spec_.merge_runs);
    }
  }

  void finish_merge() { t_merge_end_ = engine_.now(); }

  void do_reduce() {
    t_readmap_end_ = engine_.now();
    spawn_reduce([this] { do_merge(); });
  }

  // --- schedules ------------------------------------------------------

  void start_original() {
    spawn_ingest(0, [this] {
      t_ingest_end_ = engine_.now();
      spawn_map_wave(chunks_[0], [this] { do_reduce(); });
    });
  }

  void start_pipeline() {
    const std::size_t n = chunks_.size();
    // gate[i] fires run_round(i) once chunk i is ingested AND round i-1's
    // mappers finished (round 0 waits only on its ingest) — the paper's
    // "loop for each chunk" with double buffering.
    gates_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      gates_[i] =
          sim::make_join(i == 0 ? 1 : 2, [this, i] { run_round(i); });
    }
    spawn_ingest(0, [this] { gates_[0](); });
  }

  void run_round(std::size_t i) {
    const std::size_t n = chunks_.size();
    if (i + 1 < n) {
      spawn_ingest(i + 1, [this, i] { gates_[i + 1](); });
    }
    spawn_map_wave(chunks_[i], [this, i, n] {
      if (i + 1 < n) {
        gates_[i + 1]();
      } else {
        do_reduce();
      }
    });
  }

  // --- result assembly -------------------------------------------------

  SimJobResult collect() {
    SimJobResult result;
    const double end = t_merge_end_;
    result.trace = sim::trace_utilization(
        machine_, 0.0, end, sim::TracerOptions{spec_.trace_interval_s});
    result.mean_utilization = sim::mean_utilization(machine_, 0.0, end);
    result.map_rounds = map_rounds_;
    result.merge_rounds = merge_rounds_;
    result.threads_spawned = machine_.threads_spawned();

    PhaseBreakdown& p = result.phases;
    p.input_bytes = spec_.dataset.total_bytes;
    p.map_rounds = map_rounds_;
    p.merge_rounds = merge_rounds_;
    p.reduce_s = t_reduce_end_ - t_readmap_end_;
    p.merge_s = t_merge_end_ - t_reduce_end_;
    p.setup_s = spec_.app.setup_cleanup_s;
    p.total_s = end + spec_.app.setup_cleanup_s;
    if (chunks_.size() == 1 && spec_.chunk_bytes == 0) {
      p.read_s = t_ingest_end_;
      p.map_s = t_readmap_end_ - t_ingest_end_;
      p.num_chunks = chunks_.size();
      p.chunked = false;
    } else {
      p.has_combined_readmap = true;
      p.readmap_s = t_readmap_end_;
      // Decompose for completeness: compute wall is the sum of map waves at
      // full width; the remainder of the combined phase was ingest-starved.
      const double map_wall =
          double(spec_.dataset.total_bytes) * spec_.app.map_cpu_s_per_byte /
          double(spec_.num_mappers);
      p.map_s = map_wall;
      p.read_s = std::max(0.0, t_readmap_end_ - map_wall);
      p.num_chunks = chunks_.size();
      p.chunked = true;
    }
    return result;
  }

  SimJobSpec spec_;
  sim::Engine engine_;
  sim::Machine machine_;
  sim::PsResource disk_;
  std::vector<std::uint64_t> chunks_;
  std::vector<std::function<void()>> gates_;

  double t_ingest_end_ = 0.0;
  double t_readmap_end_ = 0.0;
  double t_reduce_end_ = 0.0;
  double t_merge_end_ = 0.0;
  std::uint64_t map_rounds_ = 0;
  std::uint64_t merge_rounds_ = 0;
};

}  // namespace

SimJobResult simulate_job(const SimJobSpec& spec) {
  JobSim sim(spec);
  return sim.run();
}

}  // namespace supmr::perfmodel
