// The run builder: the one place a ReplaySpec becomes an application, a
// record format, an ingest source, a fault/retry device stack, a cluster
// job or a chained-app JobGraph (docs/ARCHITECTURE.md §11). The CLI's app
// subcommands and the conformance harness (system under test and oracle
// twin alike) build through it; a spec's cell reaches a JobConfig only
// through ReplaySpec::job_config().
//
// make_chain's graph holds app FACTORIES, so the same graph object serves
// both the SUT executor (graph::run_graph) and the sequential oracle
// (ref::run_graph). Callers keep the input devices alive for the graph's
// lifetime.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_job.hpp"
#include "common/status.hpp"
#include "core/application.hpp"
#include "core/replay.hpp"
#include "fault/retry_policy.hpp"
#include "graph/job_graph.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/device.hpp"

namespace supmr::apps {

// A run's input devices: the multi-file apps (index, doctermcount, tfidf)
// read `files`, every other app reads `device`.
struct ChainInputs {
  std::shared_ptr<const storage::Device> device;
  std::vector<std::shared_ptr<const storage::Device>> files;
};

// The single-round app spec.app names, with its parameters set.
// InvalidArgument for a graph or unknown app, or parameters the app
// rejects.
StatusOr<std::unique_ptr<core::Application>> make_app(
    const core::ReplaySpec& spec);

// How spec.app's input is framed: "\r\n"-terminated fixed records for sort
// and msort, lines for every other app.
std::shared_ptr<const ingest::RecordFormat> record_format(
    const core::ReplaySpec& spec);

// The source spec.app reads, at the spec's chunking and io: a
// MultiFileSource over inputs.files for the multi-file apps, else a
// SingleDeviceSource over inputs.device in record_format(spec).
// InvalidArgument when the input the app reads is missing.
StatusOr<std::unique_ptr<ingest::IngestSource>> make_source(
    const core::ReplaySpec& spec, const ChainInputs& inputs);

// `device` behind spec.fault_plan (storage::FaultDevice) and, when the
// policy retries, a fault::RetryingDevice — the stack a run's input is read
// through, and the one place a retry policy reaches it. The policy makes
// spec.retry_attempts attempts per read; `backoff` supplies the rest (base,
// cap, deadline, jitter seed), and its max_attempts is ignored. Chunk reads
// and record-boundary probes retry the same way, and the pipeline above
// reads each chunk once.
StatusOr<std::shared_ptr<const storage::Device>> with_faults(
    std::shared_ptr<const storage::Device> device,
    const core::ReplaySpec& spec, fault::RetryPolicy backoff);

// The cluster run of spec over `input` (spec.is_cluster()): every node
// builds make_app(spec) and runs spec.job_config(); owners spill into the
// job's default spill_dir. An app make_app rejects fails here, before any
// node starts.
StatusOr<cluster::ClusterJob> make_cluster_job(const core::ReplaySpec& spec,
                                               std::string input);

// Builds the chain for spec.app:
//   pmi   — wordcount + paircount over the same text -> PMI join
//   tfidf — inverted index + doc-term counts over the same files -> TF-IDF
//   msort — scatter (bucket by key prefix) -> terasort, CrlfFormat edge
// InvalidArgument for non-graph apps or missing inputs.
StatusOr<graph::JobGraph> make_chain(const core::ReplaySpec& spec,
                                     const ChainInputs& inputs);

}  // namespace supmr::apps
