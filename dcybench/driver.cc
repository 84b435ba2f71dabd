// dcy-bench driver: runs one workload against a live 3-node RingCluster,
// driven from SQL text through the session API, and writes the raw
// measurements as one JSON document (--out):
//
//   * the set-up times of several complete set-ups (generate TPC-H data,
//     LoadBat every column, Start, first validated answer);
//   * per measured window: one record per operation (start, end, due time
//     for the open-loop writer, status, attempts, QueryTiming), process CPU,
//     and snapshots of every counter the runtime exposes taken just before
//     and just after the window;
//   * with --trace=1 the time is split between an untraced and a traced
//     window; the spans recorded around the calls into each layer, and side
//     timings of direct sql/opt/bat/mal calls;
//   * correctness: every read is checked against an independent reference,
//     and read_write's final state against the writer's own bookkeeping.
//
// run.py turns this document into the reported metrics, so the arithmetic
// lives in one place and is unit-tested without a ring. Every layer is
// measured from outside: timed public calls and before/after counter
// snapshots.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bat/serialize.h"
#include "common/flags.h"
#include "exec/executor.h"
#include "mal/interpreter.h"
#include "opt/dc_optimizer.h"
#include "runtime/ring_cluster.h"
#include "runtime/session.h"
#include "sql/compiler.h"
#include "workload/tpch_data.h"

#ifndef DCYBENCH_BUILD_TYPE
#define DCYBENCH_BUILD_TYPE "unknown"
#endif

using namespace dcy;  // NOLINT

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double NowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch).count();
}

// Ring and data settings shared by every workload: those of
// bench_table4_tpch (TPC-H scale 0.05, 3 nodes, no memory budget, fault-free
// fabric, no client-side retry), with its --writes compaction settings.
constexpr double kScale = 0.05;
constexpr uint32_t kNodes = 3;
constexpr size_t kPlanWorkers = 4;
// read_write's open-loop writer: statements per second, far below the
// ~250/s a closed-loop writer sustains on a 4-core host.
constexpr double kWriterRate = 50.0;
// Marker rows: l_orderkey far above the generated key space and a ship date
// outside every query window, so the read answers stay valid at any version.
constexpr int64_t kMarkerBase = 900000000;
constexpr double kWarmupSeconds = 2.0;
// Complete set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
// Closed-loop reader sessions in every workload (read_write adds the
// writer): with the ring's own threads, at most 3 client threads fit a
// 4-core host.
constexpr uint32_t kReaders = 2;

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssKiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();  // drop trailing NULs
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

// ---- JSON output ------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

using Counters = std::vector<std::pair<std::string, double>>;

std::string ToJson(const Counters& c) {
  std::string out = "{";
  for (size_t i = 0; i < c.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(c[i].first) + ":" + Num(c[i].second);
  }
  return out + "}";
}

// ---- tracing ----------------------------------------------------------------

/// One span: a named interval around a call into a layer. Spans of one
/// operation share `qid`; `parent` 0 marks a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t qid = 0;
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
};

/// Keeps spans in memory until the run ends. A null Tracer* means tracing
/// is off and costs nothing.
class Tracer {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Record(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }
  uint64_t Add(const std::string& name, uint64_t parent, uint64_t qid, double start_ms,
               double end_ms) {
    const uint64_t id = NewId();
    Record({id, parent, qid, name, start_ms, end_ms});
    return id;
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- validation -------------------------------------------------------------

bool ValuesMatch(const bat::Value& got, const bat::Value& want) {
  if (want.type == bat::ValType::kStr) {
    return got.type == bat::ValType::kStr && got.s == want.s;
  }
  if (want.type == bat::ValType::kDbl) {
    const double g = got.AsDouble(), w = want.AsDouble();
    // Sums of ~1e5 cent-quantized terms: tolerate reassociation error.
    return std::fabs(g - w) <= 1e-6 * std::max(1.0, std::max(std::fabs(g), std::fabs(w)));
  }
  return got.AsInt64() == want.AsInt64();
}

bool DatumToValue(const mal::Datum& d, bat::Value* out) {
  if (const auto* i = std::get_if<int64_t>(&d)) {
    *out = bat::Value::MakeLng(*i);
  } else if (const auto* x = std::get_if<double>(&d)) {
    *out = bat::Value::MakeDbl(*x);
  } else if (const auto* s = std::get_if<std::string>(&d)) {
    *out = bat::Value::MakeStr(*s);
  } else {
    return false;
  }
  return true;
}

/// Compares a result against an independently computed answer; returns an
/// empty string on a match, else the first divergence.
std::string Mismatch(const runtime::ResultSet& got, const workload::TpchAnswer& want) {
  char buf[512];
  if (!got.has_table()) {
    bat::Value v;
    if (want.rows.size() != 1 || want.rows[0].size() != 1) {
      return "scalar result, want a table";
    }
    if (!DatumToValue(got.scalar(), &v)) return "non-scalar result";
    if (ValuesMatch(v, want.rows[0][0])) return "";
    std::snprintf(buf, sizeof(buf), "got %s, want %s", v.ToString().c_str(),
                  want.rows[0][0].ToString().c_str());
    return buf;
  }
  if (got.num_columns() != want.names.size()) {
    std::snprintf(buf, sizeof(buf), "got %zu columns, want %zu", got.num_columns(),
                  want.names.size());
    return buf;
  }
  if (got.num_rows() != want.rows.size()) {
    std::snprintf(buf, sizeof(buf), "got %zu rows, want %zu", got.num_rows(),
                  want.rows.size());
    return buf;
  }
  for (size_t r = 0; r < want.rows.size(); ++r) {
    for (size_t c = 0; c < want.names.size(); ++c) {
      const bat::Value g = got.ValueAt(r, c);
      if (!ValuesMatch(g, want.rows[r][c])) {
        std::snprintf(buf, sizeof(buf), "row %zu column %zu (%s): got %s, want %s", r, c,
                      want.names[c].c_str(), g.ToString().c_str(),
                      want.rows[r][c].ToString().c_str());
        return buf;
      }
    }
  }
  return "";
}

// ---- point lookups and their plain-C++ reference ----------------------------

struct Query {
  std::string shape;  ///< stable label: "q6", "pl_custkey", ...
  std::string sql;
  workload::TpchAnswer want;
};

const char* const kPointShapes[] = {"pl_custkey", "pl_nation_count", "pl_supplier_top5",
                                    "pl_region_nations"};

/// Builds point-lookup shape `k` with literal index `pick` (reduced modulo
/// the literal domain) and its answer, by scanning TpchData directly.
Query PointLookup(const workload::TpchData& d, int k, uint64_t pick) {
  Query q;
  q.shape = kPointShapes[k];
  char sql[256];
  if (k == 0) {
    const int64_t key = d.customer.custkey[pick % d.customer.rows()];
    std::snprintf(sql, sizeof(sql),
                  "select c_name, c_acctbal from customer where c_custkey = %lld;",
                  static_cast<long long>(key));
    q.want.names = {"c_name", "c_acctbal"};
    for (size_t i = 0; i < d.customer.rows(); ++i) {
      if (d.customer.custkey[i] == key) {
        q.want.rows.push_back({bat::Value::MakeStr(d.customer.name[i]),
                               bat::Value::MakeDbl(d.customer.acctbal[i])});
      }
    }
  } else if (k == 1) {
    const int64_t n = d.nation.nationkey[pick % d.nation.rows()];
    std::snprintf(sql, sizeof(sql),
                  "select count(*) from customer where c_nationkey = %lld;",
                  static_cast<long long>(n));
    const auto& keys = d.customer.nationkey;
    const auto count = std::count(keys.begin(), keys.end(), n);
    q.want.names = {"count(*)"};
    q.want.rows.push_back({bat::Value::MakeLng(count)});
  } else if (k == 2) {
    const int64_t n = d.nation.nationkey[pick % d.nation.rows()];
    std::snprintf(sql, sizeof(sql),
                  "select s_suppkey from supplier where s_nationkey = %lld "
                  "order by s_suppkey limit 5;",
                  static_cast<long long>(n));
    std::vector<int64_t> keys;
    for (size_t i = 0; i < d.supplier.rows(); ++i) {
      if (d.supplier.nationkey[i] == n) keys.push_back(d.supplier.suppkey[i]);
    }
    std::sort(keys.begin(), keys.end());
    keys.resize(std::min<size_t>(keys.size(), 5));
    q.want.names = {"s_suppkey"};
    for (const int64_t key : keys) q.want.rows.push_back({bat::Value::MakeLng(key)});
  } else {
    const int64_t r = d.region.regionkey[pick % d.region.rows()];
    std::snprintf(sql, sizeof(sql),
                  "select n_name from nation where n_regionkey = %lld order by n_name;",
                  static_cast<long long>(r));
    std::vector<std::string> names;
    for (size_t i = 0; i < d.nation.rows(); ++i) {
      if (d.nation.regionkey[i] == r) names.push_back(d.nation.name[i]);
    }
    std::sort(names.begin(), names.end());
    q.want.names = {"n_name"};
    for (auto& name : names) q.want.rows.push_back({bat::Value::MakeStr(name)});
  }
  q.sql = sql;
  return q;
}

Query TpchQuery(const workload::TpchData& d, int q) {
  return {"q" + std::to_string(q), workload::TpchQuerySql(q),
          workload::TpchReferenceAnswer(d, q)};
}

// ---- the ring under test ----------------------------------------------------

runtime::RingCluster::Options RingOptions() {
  runtime::RingCluster::Options opts;
  opts.num_nodes = kNodes;
  opts.plan_workers = kPlanWorkers;
  opts.node.load_all_period = FromMillis(2);
  opts.node.maintenance_period = FromMillis(10);
  opts.node.adapt_period = FromMillis(10);
  opts.node.initial_rotation_estimate = FromMillis(5);
  opts.compaction.max_delta_count = 8;
  opts.compaction.interval = FromMillis(5);
  return opts;
}

runtime::Session MustOpenSession(runtime::RingCluster& ring, core::NodeId node) {
  auto session = ring.OpenSession(node);
  DCY_CHECK_OK(session.status());
  return *session;
}

/// One complete set-up: data, a started ring, and its set-up timings.
struct Rig {
  workload::TpchData data;
  std::unique_ptr<runtime::RingCluster> ring;
  double generate_s = 0;
  double load_s = 0;
  double setup_s = 0;
};

/// Generates the data, loads every column, starts the ring, and runs Q6
/// until its first validated answer (DCY_CHECK-fails on a wrong one).
std::unique_ptr<Rig> SetUp() {
  auto rig = std::make_unique<Rig>();
  const double t0 = NowMs();
  rig->data = workload::GenerateTpchData(kScale);
  const double t1 = NowMs();
  rig->ring = std::make_unique<runtime::RingCluster>(RingOptions());
  core::NodeId owner = 0;
  for (auto& [name, b] : workload::TpchBats(rig->data)) {
    DCY_CHECK_OK(rig->ring->LoadBat(owner, name, std::move(b)));
    owner = (owner + 1) % kNodes;
  }
  rig->ring->Start();
  const double t2 = NowMs();
  const Query q6 = TpchQuery(rig->data, 6);
  auto result = MustOpenSession(*rig->ring, 0).Execute(q6.sql);
  DCY_CHECK_OK(result.status());
  const std::string bad = Mismatch(result->result, q6.want);
  DCY_CHECK(bad.empty()) << "set-up Q6: " << bad;
  const double t3 = NowMs();
  rig->generate_s = (t1 - t0) / 1e3;
  rig->load_s = (t2 - t1) / 1e3;
  rig->setup_s = (t3 - t0) / 1e3;
  return rig;
}

/// The runtime's counters and gauges that the per-layer metrics use,
/// flattened to numbers named after the module that owns them.
Counters Snapshot(const runtime::RingCluster& ring) {
  Counters c;
  auto add = [&](const char* name, double v) { c.emplace_back(name, v); };

  std::vector<core::DcNodeMetrics> nodes;
  for (uint32_t i = 0; i < ring.num_nodes(); ++i) nodes.push_back(ring.NodeMetrics(i));
  auto node_sum = [&](uint64_t core::DcNodeMetrics::*field) {
    double total = 0;
    for (const auto& m : nodes) total += static_cast<double>(m.*field);
    return total;
  };
  add("core.request_msgs_sent", node_sum(&core::DcNodeMetrics::request_msgs_sent));
  add("core.resends", node_sum(&core::DcNodeMetrics::resends));
  add("core.pins_total", node_sum(&core::DcNodeMetrics::pins_total));
  add("core.pins_local_hit", node_sum(&core::DcNodeMetrics::pins_local_hit));
  add("core.pins_blocked", node_sum(&core::DcNodeMetrics::pins_blocked));
  add("core.bats_loaded", node_sum(&core::DcNodeMetrics::bats_loaded));
  add("core.bats_unloaded", node_sum(&core::DcNodeMetrics::bats_unloaded));
  add("core.bats_presumed_lost", node_sum(&core::DcNodeMetrics::bats_presumed_lost));

  const auto res = ring.Resilience();
  add("net.retransmits", static_cast<double>(res.retransmits));
  add("net.acks_sent", static_cast<double>(res.acks_sent));
  add("net.frames_duplicate", static_cast<double>(res.frames_duplicate));
  add("net.frames_corrupted", static_cast<double>(res.frames_corrupted));

  const auto bw = ring.Bandwidth();
  add("bat.raw_bytes", static_cast<double>(bw.raw_bytes));
  add("bat.wire_bytes", static_cast<double>(bw.wire_bytes));
  add("bat.hops", static_cast<double>(bw.hops));
  add("bat.hop_bytes", static_cast<double>(bw.hop_bytes));
  add("rdma.bytes_moved", static_cast<double>(ring.TotalDataBytesMoved()));

  const auto mem = ring.Memory();
  add("storage.resident_bytes", static_cast<double>(mem.resident_bytes));
  add("storage.evictions", static_cast<double>(mem.evictions));

  const auto w = ring.Writes();
  add("write.commits", static_cast<double>(w.commits));
  add("write.merges", static_cast<double>(w.merges));
  add("write.merge_seconds", w.merge_seconds);
  add("write.delta_frames_forwarded", static_cast<double>(w.delta_frames_forwarded));
  add("write.compactions", static_cast<double>(w.compactions));
  add("write.pending_deltas", static_cast<double>(w.pending_deltas));

  const auto ex = exec::Executor::Default().metrics();
  add("exec.tasks_executed", static_cast<double>(ex.tasks_executed));
  add("exec.tasks_stolen", static_cast<double>(ex.tasks_stolen));
  add("exec.blocking_sections", static_cast<double>(ex.blocking_sections));

  const auto pc = ring.plan_cache_stats();
  add("runtime.plan_cache_hits", static_cast<double>(pc.hits));
  add("runtime.plan_cache_misses", static_cast<double>(pc.misses));
  uint64_t rejected = 0;
  for (uint32_t i = 0; i < ring.num_nodes(); ++i) {
    rejected += ring.NodeAdmissionMetrics(i).rejected;
  }
  add("runtime.admission_rejected", static_cast<double>(rejected));
  return c;
}

// ---- operations -------------------------------------------------------------

/// One client operation, as the client saw it. Times are ms since kEpoch;
/// `due_ms` < 0 marks a closed-loop operation.
struct OpRecord {
  std::string kind;   ///< "read" or "write"
  std::string shape;
  double due_ms = -1;
  double start_ms = 0;
  double end_ms = 0;
  bool ok = false;
  uint32_t attempts = 1;
  double prepare_us = 0;
  double queued_ms = 0;
  double exec_ms = 0;
  double pin_blocked_ms = 0;
  std::string error;  ///< status message when !ok
};

std::string ToJson(const OpRecord& op) {
  std::string out = "{\"kind\":" + Quote(op.kind) + ",\"shape\":" + Quote(op.shape);
  if (op.due_ms >= 0) out += ",\"due_ms\":" + Num(op.due_ms);
  out += ",\"start_ms\":" + Num(op.start_ms) + ",\"end_ms\":" + Num(op.end_ms) +
         ",\"ok\":" + (op.ok ? "true" : "false") +
         ",\"attempts\":" + std::to_string(op.attempts) +
         ",\"prepare_us\":" + Num(op.prepare_us) + ",\"queued_ms\":" + Num(op.queued_ms) +
         ",\"exec_ms\":" + Num(op.exec_ms) +
         ",\"pin_blocked_ms\":" + Num(op.pin_blocked_ms);
  if (!op.ok) out += ",\"error\":" + Quote(op.error);
  return out + "}";
}

/// Shared by every client of a run: operation ids and wrong answers.
struct RunState {
  std::atomic<uint64_t> next_qid{0};
  std::mutex mu;
  std::vector<std::string> mismatches;  ///< guarded by mu

  void AddMismatch(std::string m) {
    std::lock_guard<std::mutex> lock(mu);
    if (mismatches.size() < 20) mismatches.push_back(std::move(m));
  }
};

/// Session::Prepare, then Submit -> QueryHandle::Wait, spanned as
/// runtime.prepare and runtime.submit_wait with QueryTiming's queued / exec /
/// pin_blocked placed as children. Returns the result for the caller to
/// check; `op` receives timings and status.
Result<runtime::QueryResult> RunStatement(runtime::Session& session,
                                          const std::string& sql, OpRecord* op,
                                          Tracer* tracer, uint64_t root, uint64_t qid) {
  const double p0 = NowMs();
  auto prepared = session.Prepare(sql);
  const double p1 = NowMs();
  op->prepare_us = (p1 - p0) * 1e3;
  if (tracer != nullptr) tracer->Add("runtime.prepare", root, qid, p0, p1);
  if (!prepared.ok()) return prepared.status();
  auto handle = session.Submit(*prepared);
  Result<runtime::QueryResult> result =
      handle.ok() ? handle->Wait() : Result<runtime::QueryResult>(handle.status());
  const double s1 = NowMs();
  if (result.ok()) {
    const runtime::QueryTiming& t = result->timing;
    op->attempts = result->attempts;
    op->queued_ms = t.queued_seconds * 1e3;
    op->exec_ms = t.exec_seconds * 1e3;
    op->pin_blocked_ms = t.pin_blocked_seconds * 1e3;
  }
  if (tracer != nullptr) {
    const uint64_t sw = tracer->Add("runtime.submit_wait", root, qid, p1, s1);
    if (result.ok()) {
      const double exec_start = p1 + op->queued_ms;
      tracer->Add("runtime.queued", sw, qid, p1, exec_start);
      const uint64_t ex =
          tracer->Add("runtime.exec", sw, qid, exec_start, exec_start + op->exec_ms);
      // Concurrent pins sum, so the blocked total can exceed exec time.
      tracer->Add("runtime.pin_blocked", ex, qid, exec_start,
                  exec_start + std::min(op->pin_blocked_ms, op->exec_ms));
    }
  }
  return result;
}

/// A closed-loop read: prepare (a plan-cache hit for repeated texts),
/// submit, wait, and check the answer against `q.want`.
OpRecord RunRead(runtime::Session& session, const Query& q, RunState* st,
                 Tracer* tracer) {
  OpRecord op;
  op.kind = "read";
  op.shape = q.shape;
  const uint64_t qid = st->next_qid.fetch_add(1) + 1;
  const uint64_t root = tracer != nullptr ? tracer->NewId() : 0;
  op.start_ms = NowMs();
  auto result = RunStatement(session, q.sql, &op, tracer, root, qid);
  const double check_start = NowMs();
  if (!result.ok()) {
    op.error = result.status().ToString();
  } else {
    const std::string bad = Mismatch(result->result, q.want);
    op.ok = bad.empty();
    if (!bad.empty()) {
      op.error = "wrong answer: " + bad;
      st->AddMismatch(q.shape + " (" + q.sql + "): " + bad);
    }
  }
  op.end_ms = NowMs();
  if (tracer != nullptr) {
    tracer->Add("check.validate", root, qid, check_start, op.end_ms);
    tracer->Record({root, 0, qid, "op.read", op.start_ms, op.end_ms});
  }
  return op;
}

// ---- workloads --------------------------------------------------------------

/// A client thread body: issues operations until `deadline_ms`, appending
/// one record each. `window_start_ms` anchors an open-loop schedule.
using ClientFn = std::function<void(double window_start_ms, double deadline_ms,
                                    Tracer* tracer, std::vector<OpRecord>* ops)>;

std::mt19937_64 ClientRng(uint64_t seed, uint64_t client) {
  std::seed_seq seq{static_cast<uint32_t>(seed), static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(client), 0xDCB3u};
  return std::mt19937_64(seq);
}

/// Closed-loop client over prepared TPC-H queries on `node`, in a seeded
/// round-robin order (each round a fresh shuffle of `queries`). The
/// closure's state persists across windows.
ClientFn TpchReader(runtime::RingCluster& ring, core::NodeId node,
                    std::vector<const Query*> queries, uint64_t seed, uint64_t client,
                    RunState* st) {
  const size_t n = queries.size();
  return [session = MustOpenSession(ring, node), rng = ClientRng(seed, client),
          order = std::move(queries), pos = n,
          st](double, double deadline, Tracer* tracer,
              std::vector<OpRecord>* ops) mutable {
    while (NowMs() < deadline) {
      if (pos == order.size()) {
        std::shuffle(order.begin(), order.end(), rng);
        pos = 0;
      }
      ops->push_back(RunRead(session, *order[pos++], st, tracer));
    }
  };
}

/// Closed-loop client issuing ad-hoc point lookups with seeded literals.
ClientFn PointReader(runtime::RingCluster& ring, const workload::TpchData& data,
                     core::NodeId node, uint64_t seed, uint64_t client, RunState* st) {
  return [session = MustOpenSession(ring, node), rng = ClientRng(seed, client), &data,
          st](double, double deadline, Tracer* tracer,
              std::vector<OpRecord>* ops) mutable {
    while (NowMs() < deadline) {
      const int shape = static_cast<int>(rng() % 4);
      const Query q = PointLookup(data, shape, rng());
      ops->push_back(RunRead(session, q, st, tracer));
    }
  };
}

/// read_write's open-loop writer: statement i is due at window start +
/// i / kWriterRate. It inserts marker rows into lineitem and deletes every
/// third one right after its insert, keeping plain-C++ bookkeeping of what
/// must remain. State persists across windows.
class MarkerWriter {
 public:
  MarkerWriter(runtime::RingCluster& ring, uint64_t seed, RunState* st)
      : rng_(ClientRng(seed, 99)), st_(st), session_(MustOpenSession(ring, 0)) {
    // Seeded key block, 100k keys wide, well clear of the generated keys.
    base_ = kMarkerBase + static_cast<int64_t>(rng_() % 1000) * 100000;
  }

  void Run(double window_start, double deadline, Tracer* tracer,
           std::vector<OpRecord>* ops) {
    const double period_ms = 1e3 / kWriterRate;
    for (uint64_t i = 0;; ++i) {
      const double due = window_start + static_cast<double>(i) * period_ms;
      if (due >= deadline) break;
      const double now = NowMs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(due - now));
      }
      ops->push_back(Next(due, tracer));
    }
  }

  int64_t base() const { return base_; }
  int64_t rows_inserted() const { return inserted_; }
  int64_t rows_deleted() const { return deleted_; }
  double surviving_quantity() const { return quantity_; }
  int64_t surviving_rows() const { return inserted_ - deleted_; }

 private:
  OpRecord Next(double due, Tracer* tracer) {
    char sql[512];
    const bool is_delete = pending_delete_ >= 0;
    int64_t qty = 0;
    if (is_delete) {
      std::snprintf(sql, sizeof(sql), "delete from lineitem where l_orderkey = %lld;",
                    static_cast<long long>(pending_delete_));
    } else {
      qty = 1 + static_cast<int64_t>(rng_() % 5);
      std::snprintf(sql, sizeof(sql),
                    "insert into lineitem (l_orderkey, l_suppkey, l_quantity, "
                    "l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus, "
                    "l_shipdate) values "
                    "(%lld, 1, %lld, %lld, 0.0, 0.0, 'Z', 'Z', 20990101);",
                    static_cast<long long>(base_ + next_marker_),
                    static_cast<long long>(qty), static_cast<long long>(qty * 1000));
    }
    OpRecord op;
    op.kind = "write";
    op.shape = is_delete ? "delete" : "insert";
    op.due_ms = due;
    const uint64_t qid = st_->next_qid.fetch_add(1) + 1;
    const uint64_t root = tracer != nullptr ? tracer->NewId() : 0;
    op.start_ms = NowMs();
    auto result = RunStatement(session_, sql, &op, tracer, root, qid);
    if (!result.ok()) {
      op.error = result.status().ToString();
    } else {
      const auto* rows = std::get_if<int64_t>(&result->result.scalar());
      op.ok = rows != nullptr && *rows == 1;
      if (!op.ok) op.error = "write affected an unexpected number of rows";
    }
    op.end_ms = NowMs();
    if (tracer != nullptr) {
      tracer->Record({root, 0, qid, "op.write", op.start_ms, op.end_ms});
    }
    if (is_delete) {
      if (op.ok) {
        ++deleted_;
        quantity_ -= static_cast<double>(pending_qty_);
      }
      pending_delete_ = -1;
    } else {
      const int64_t marker = next_marker_++;
      if (op.ok) {
        ++inserted_;
        quantity_ += static_cast<double>(qty);
        if (marker % 3 == 0) {
          pending_delete_ = base_ + marker;
          pending_qty_ = qty;
        }
      }
    }
    return op;
  }

  std::mt19937_64 rng_;
  RunState* st_;
  runtime::Session session_;
  int64_t base_ = kMarkerBase;
  int64_t next_marker_ = 0;
  int64_t pending_delete_ = -1;
  int64_t pending_qty_ = 0;
  int64_t inserted_ = 0;
  int64_t deleted_ = 0;
  double quantity_ = 0;
};

struct Window {
  bool traced = false;
  double start_ms = 0;
  double end_ms = 0;
  double cpu_s = 0;
  Counters before, after;
  std::vector<OpRecord> ops;
};

/// Runs every client for `seconds`, snapshotting counters and process CPU
/// right before the clients start and right after the last one returns.
Window RunWindow(runtime::RingCluster& ring, std::vector<ClientFn>& clients,
                 double seconds, Tracer* tracer) {
  Window w;
  w.traced = tracer != nullptr;
  std::vector<std::vector<OpRecord>> per_client(clients.size());
  w.before = Snapshot(ring);
  const double cpu0 = CpuSeconds();
  w.start_ms = NowMs();
  const double deadline = w.start_ms + seconds * 1e3;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back(
        [&, c] { clients[c](w.start_ms, deadline, tracer, &per_client[c]); });
  }
  for (auto& t : threads) t.join();
  w.end_ms = NowMs();
  w.cpu_s = CpuSeconds() - cpu0;
  w.after = Snapshot(ring);
  for (auto& ops : per_client) {
    for (auto& op : ops) w.ops.push_back(std::move(op));
  }
  return w;
}

// ---- side timings of direct layer calls (traced run only) -------------------

/// The fragment source of the no-ring kernel floor: every TPC-H column by
/// qualified name, in memory.
class LocalFragments : public bat::FragmentSource {
 public:
  explicit LocalFragments(const workload::TpchData& data) {
    for (auto& [name, b] : workload::TpchBats(data)) by_name_.emplace(name, std::move(b));
  }
  Result<bat::BatPtr> GetByName(const std::string& name) override {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) return Status::NotFound("no fragment " + name);
    return it->second;
  }
  Result<bat::BatPtr> GetById(core::BatId) override {
    return Status::NotFound("local fragments are addressed by name");
  }

 private:
  std::unordered_map<std::string, bat::BatPtr> by_name_;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// sql::Compile and opt::DcOptimize per text: median over repeats, in us.
std::string CompileTimings(const std::vector<const Query*>& texts,
                           const sql::Schema& schema, Tracer* tracer) {
  constexpr int kRepeats = 15;
  std::string out = "[";
  for (size_t i = 0; i < texts.size(); ++i) {
    std::vector<double> compile_us, optimize_us;
    for (int r = 0; r < kRepeats; ++r) {
      const double c0 = NowMs();
      auto program = sql::Compile(texts[i]->sql, schema);
      const double c1 = NowMs();
      DCY_CHECK_OK(program.status());
      auto optimized = opt::DcOptimize(*program);
      const double c2 = NowMs();
      DCY_CHECK_OK(optimized.status());
      compile_us.push_back((c1 - c0) * 1e3);
      optimize_us.push_back((c2 - c1) * 1e3);
      tracer->Add("sql.compile", 0, 0, c0, c1);
      tracer->Add("opt.optimize", 0, 0, c1, c2);
    }
    if (i > 0) out += ",";
    out += "{\"shape\":" + Quote(texts[i]->shape) +
           ",\"compile_us\":" + Num(Median(compile_us)) +
           ",\"optimize_us\":" + Num(Median(optimize_us)) + "}";
  }
  return out + "]";
}

/// bat::Serialize / bat::Deserialize over every TPC-H fragment.
std::string CodecTimings(const workload::TpchData& data, Tracer* tracer) {
  constexpr int kRepeats = 3;
  double ser_ms = 0, deser_ms = 0, wire_bytes = 0;
  for (const auto& [name, b] : workload::TpchBats(data)) {
    for (int r = 0; r < kRepeats; ++r) {
      const double t0 = NowMs();
      const std::string frame = bat::Serialize(*b);
      const double t1 = NowMs();
      auto decoded = bat::Deserialize(frame);
      const double t2 = NowMs();
      DCY_CHECK_OK(decoded.status());
      ser_ms += t1 - t0;
      deser_ms += t2 - t1;
      wire_bytes += static_cast<double>(frame.size());
      tracer->Add("bat.serialize", 0, 0, t0, t1);
      tracer->Add("bat.deserialize", 0, 0, t1, t2);
    }
  }
  return "{\"serialize_ms\":" + Num(ser_ms) + ",\"deserialize_ms\":" + Num(deser_ms) +
         ",\"wire_bytes\":" + Num(wire_bytes) + "}";
}

/// The kernel floor: each query compiled without the DcOptimize rewrite and
/// run by mal::Interpreter straight off LocalFragments (no ring), answers
/// checked like the live ones. Median ms per query.
std::string LocalExecTimings(const std::vector<const Query*>& queries,
                             const workload::TpchData& data, const sql::Schema& schema,
                             RunState* st, Tracer* tracer) {
  constexpr int kRepeats = 3;
  LocalFragments local(data);
  std::string out = "[";
  for (size_t i = 0; i < queries.size(); ++i) {
    auto program = sql::Compile(queries[i]->sql, schema);
    DCY_CHECK_OK(program.status());
    std::vector<double> ms;
    for (int r = 0; r < kRepeats; ++r) {
      mal::ExportSink sink;
      mal::Context ctx;
      ctx.catalog = &local;
      ctx.exported = &sink;
      mal::Interpreter interp(&mal::Registry::Global(), ctx);
      mal::ExecOptions eo;
      eo.workers = kPlanWorkers;
      const double t0 = NowMs();
      auto result = interp.Execute(*program, eo);
      const double t1 = NowMs();
      DCY_CHECK_OK(result.status());
      const std::string bad =
          Mismatch(runtime::ResultSet::Build(sink.result, *result), queries[i]->want);
      if (!bad.empty()) st->AddMismatch("local " + queries[i]->shape + ": " + bad);
      ms.push_back(t1 - t0);
      tracer->Add("mal.local_exec", 0, 0, t0, t1);
    }
    if (i > 0) out += ",";
    out += "{\"shape\":" + Quote(queries[i]->shape) + ",\"ms\":" + Num(Median(ms)) + "}";
  }
  return out + "]";
}

// ---- read_write's final-state check -------------------------------------------

/// After the compactor drains, the row count and marker-quantity sum must
/// match the writer's bookkeeping. Returns "" on a match.
std::string CheckFinalState(runtime::RingCluster& ring, const workload::TpchData& data,
                            const MarkerWriter& writer, std::string* detail) {
  const auto drain_deadline = Clock::now() + std::chrono::seconds(30);
  while (ring.Writes().pending_deltas != 0 && Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  runtime::Session session = MustOpenSession(ring, 0);
  std::string errors;
  auto check = [&](const std::string& sql, double want, const char* what) {
    double got = NAN;
    auto r = session.Execute(sql);
    bat::Value v;
    if (r.ok()) {
      if (r->result.has_table() && r->result.num_rows() == 1) {
        got = r->result.ValueAt(0, 0).AsDouble();
      } else if (DatumToValue(r->result.scalar(), &v)) {
        got = v.AsDouble();
      }
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s: got %.1f, want %.1f", what, got, want);
    *detail += std::string(detail->empty() ? "" : "; ") + buf;
    if (!(std::fabs(got - want) <= 1e-6)) errors += std::string(buf) + "; ";
  };
  check("select count(*) from lineitem;",
        static_cast<double>(data.lineitem.rows()) +
            static_cast<double>(writer.rows_inserted()) -
            static_cast<double>(writer.rows_deleted()),
        "final row count");
  if (writer.surviving_rows() > 0) {
    check("select sum(l_quantity) from lineitem where l_orderkey >= " +
              std::to_string(writer.base()) + ";",
          writer.surviving_quantity(), "marker quantity sum");
  }
  return errors;
}

std::string ToJson(const Window& w) {
  std::string out = "{\"traced\":" + std::string(w.traced ? "true" : "false") +
                    ",\"start_ms\":" + Num(w.start_ms) + ",\"end_ms\":" + Num(w.end_ms) +
                    ",\"cpu_s\":" + Num(w.cpu_s) + ",\"before\":" + ToJson(w.before) +
                    ",\"after\":" + ToJson(w.after) + ",\"ops\":[";
  for (size_t i = 0; i < w.ops.size(); ++i) {
    if (i > 0) out += ",\n";
    out += ToJson(w.ops[i]);
  }
  return out + "]}";
}

std::string ToJson(const std::vector<Span>& spans) {
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",\n";
    out += "{\"id\":" + std::to_string(s.id) + ",\"parent\":" + std::to_string(s.parent) +
           ",\"qid\":" + std::to_string(s.qid) + ",\"name\":" + Quote(s.name) +
           ",\"start_ms\":" + Num(s.start_ms) + ",\"end_ms\":" + Num(s.end_ms) + "}";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10);
  const bool trace = flags.GetBool("trace", false);
  const std::string out_path = flags.GetString("out", "");
  const bool known = workload == "olap_mix" || workload == "point_lookup" ||
                     workload == "read_write";
  if (!known || out_path.empty() || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: dcybench_driver --workload={olap_mix,point_lookup,read_write} "
                 "--seed=N --seconds=S --trace={0,1} --out=FILE\n");
    return 2;
  }

  // Set up kSetups times; all but the last rig are torn down again.
  std::vector<double> setup_s, generate_s, load_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    rig = SetUp();
    setup_s.push_back(rig->setup_s);
    generate_s.push_back(rig->generate_s);
    load_s.push_back(rig->load_s);
  }
  runtime::RingCluster& ring = *rig->ring;
  const workload::TpchData& data = rig->data;

  RunState st;
  std::map<int, Query> tpch;
  for (int q : workload::TpchSqlQueries()) tpch.emplace(q, TpchQuery(data, q));
  // Fixed-literal point lookups, for the direct-call timings only.
  std::vector<Query> points;
  for (int k = 0; k < 4; ++k) points.push_back(PointLookup(data, k, 7));

  std::vector<ClientFn> clients;
  std::vector<const Query*> texts;  // the workload's texts, for compile timings
  std::unique_ptr<MarkerWriter> writer;
  if (workload == "point_lookup") {
    for (core::NodeId n = 0; n < kReaders; ++n) {
      clients.push_back(PointReader(ring, data, n, seed, n, &st));
    }
    for (const Query& q : points) texts.push_back(&q);
  } else {
    // olap_mix and read_write share the reader mix, so the difference
    // between the two is the live write layer. read_write's readers sit on
    // the nodes its writer does not use.
    for (const auto& [n, q] : tpch) texts.push_back(&q);
    const core::NodeId first = workload == "read_write" ? 1 : 0;
    for (core::NodeId n = first; n < first + kReaders; ++n) {
      clients.push_back(TpchReader(ring, n, texts, seed, n, &st));
    }
  }
  if (workload == "read_write") {
    writer = std::make_unique<MarkerWriter>(ring, seed, &st);
    clients.push_back([w = writer.get()](double start, double deadline, Tracer* tracer,
                                         std::vector<OpRecord>* ops) {
      w->Run(start, deadline, tracer, ops);
    });
  }

  RunWindow(ring, clients, kWarmupSeconds, nullptr);
  // A traced run splits its measuring time into an untraced and a traced
  // half, so that it takes as long as an untraced run.
  std::vector<Window> windows;
  windows.push_back(RunWindow(ring, clients, trace ? seconds / 2 : seconds, nullptr));
  std::string side = "null";
  std::vector<Span> spans;
  if (trace) {
    Tracer tracer;
    windows.push_back(RunWindow(ring, clients, seconds / 2, &tracer));
    std::vector<const Query*> all;
    for (const auto& [n, q] : tpch) all.push_back(&q);
    for (const Query& q : points) all.push_back(&q);
    const sql::Schema schema = ring.SqlSchema();
    side = "{\"compile\":" + CompileTimings(texts, schema, &tracer) +
           ",\"codec\":" + CodecTimings(data, &tracer) +
           ",\"local_exec\":" + LocalExecTimings(all, data, schema, &st, &tracer) + "}";
    spans = tracer.Take();
  }

  std::string final_check = "null";
  bool final_ok = true;
  if (writer != nullptr) {
    std::string detail;
    const std::string errors = CheckFinalState(ring, data, *writer, &detail);
    final_ok = errors.empty();
    if (!final_ok) st.AddMismatch("final state: " + errors);
    final_check = "{\"ok\":" + std::string(final_ok ? "true" : "false") +
                  ",\"detail\":" + Quote(detail) +
                  ",\"rows_inserted\":" + std::to_string(writer->rows_inserted()) +
                  ",\"rows_deleted\":" + std::to_string(writer->rows_deleted()) + "}";
  }
  rig.reset();  // stops the ring and joins its threads

  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) out += (i > 0 ? "," : "") + Num(v[i]);
    return out + "]";
  };
  std::string mismatches = "[";
  for (size_t i = 0; i < st.mismatches.size(); ++i) {
    mismatches += (i > 0 ? "," : "") + Quote(st.mismatches[i]);
  }
  mismatches += "]";
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif

  std::ostringstream doc;
  doc << "{\"workload\":" << Quote(workload) << ",\"seed\":" << seed
      << ",\"seconds\":" << Num(seconds) << ",\"trace\":" << (trace ? "true" : "false")
      << ",\n\"stamp\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":" << Quote(CpuModel()) << ",\"compiler\":" << Quote(compiler)
      << ",\"build_type\":" << Quote(DCYBENCH_BUILD_TYPE) << ",\"scale\":" << Num(kScale)
      << ",\"nodes\":" << kNodes << ",\"plan_workers\":" << kPlanWorkers
      << ",\"readers\":" << kReaders << ",\"writers\":" << (writer != nullptr ? 1 : 0)
      << ",\"writer_rate_per_s\":" << Num(writer != nullptr ? kWriterRate : 0)
      << ",\"warmup_s\":" << Num(kWarmupSeconds) << ",\"setups\":" << kSetups << "}"
      << ",\n\"setup\":{\"setup_s\":" << list(setup_s)
      << ",\"generate_s\":" << list(generate_s)
      << ",\"load_s\":" << list(load_s) << "}"
      << ",\n\"peak_rss_kib\":" << Num(PeakRssKiB()) << ",\n\"windows\":[";
  for (size_t i = 0; i < windows.size(); ++i) {
    doc << (i > 0 ? ",\n" : "") << ToJson(windows[i]);
  }
  doc << "],\n\"side\":" << side
      << ",\n\"final_check\":" << final_check << ",\n\"mismatches\":" << mismatches
      << ",\n\"spans\":" << ToJson(spans) << "}\n";

  std::ofstream out(out_path);
  out << doc.str();
  out.close();
  if (!out) {
    std::fprintf(stderr, "dcybench_driver: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return st.mismatches.empty() ? 0 : 1;
}
