// isex::serve — the newline-delimited JSON request/response protocol.
//
// One request per line, one response line per request, always in request
// order. A request names its task set either by benchmark refs (the DFGs and
// the cell library live server-side) or inline — explicit per-task
// configuration curves, or raw DFGs the server runs through the full
// identification pipeline. Decoding is total: every byte stream maps to
// either a validated Request or a structured DecodeError; nothing throws
// past decode_request().
//
//   {"id":"r1","cmd":"select","benchmarks":["crc32","sha"],"u0":1.05,
//    "budget_fraction":0.5,"policy":"edf","node_budget":200000}
//   {"id":"r2","cmd":"select","policy":"rms","area_budget":3.5,
//    "tasks":[{"name":"t0","period":1200,
//              "configs":[[0,900],[2,500]]},
//             {"name":"t1","period":900,
//              "dfg":[{"op":"xor","in":[]},{"op":"add","in":[0]}]}]}
//   {"id":"r3","cmd":"ping"}     {"id":"r4","cmd":"stats"}
//
// Error codes (the `error.code` field of a failure response):
//   parse_error    the line is not well-formed JSON within the limits
//   bad_request    well-formed JSON violating the schema or its ranges
//   too_large      the line exceeds max_request_bytes (body was discarded)
//   overload       admission control rejected the request (queue full);
//                  `retry_after_ms` estimates when to retry
//   shutting_down  the server is draining after SIGTERM/SIGINT
//   internal       a defect — request isolation caught an exception
//
// Worker-pool error codes (only possible with `--workers N`; the error
// object carries extra structured fields):
//   worker_crashed      the worker solving this request died (after the
//                       retry budget); `signal` is the terminating signal
//                       (0 for a plain exit) and `crash_dump` the worker's
//                       flight-recorder dump path when one is configured
//   worker_timeout      the watchdog SIGKILLed a hung solve past its
//                       deadline (budget + grace); same extra fields
//   quarantined         this request content killed poison_kill_threshold
//                       workers and is refused without dispatch
//   worker_unavailable  the restart-storm circuit breaker is open and no
//                       live worker exists; `retry_after_ms` hints at the
//                       cooldown remaining
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "isex/customize/select_edf.hpp"
#include "isex/ir/program.hpp"
#include "isex/robust/outcome.hpp"
#include "isex/rt/simulator.hpp"
#include "isex/rt/task.hpp"
#include "isex/serve/json.hpp"
#include "isex/util/json_writer.hpp"

namespace isex::serve {

enum class ErrorCode {
  kParseError,
  kBadRequest,
  kTooLarge,
  kOverload,
  kShuttingDown,
  kInternal,
  // Worker-pool failure matrix (supervise/; see the header comment).
  kWorkerCrashed,
  kWorkerTimeout,
  kQuarantined,
  kWorkerUnavailable,
};
const char* to_string(ErrorCode c);

/// Schema-level ceilings on what a single request may ask of the server.
/// Budgets above the caps are clamped (and reported), sizes above the caps
/// are rejected — a size says "parse more", a budget says "work more", and
/// only the latter has a graceful partial answer.
struct RequestLimits {
  std::size_t max_request_bytes = 1 << 20;  // per line, pre-parse
  std::size_t max_id_bytes = 128;
  int max_tasks = 16;           // per request (benchmarks or inline)
  int max_configs = 64;         // per inline task curve
  int max_dfg_nodes = 256;      // per inline DFG
  double max_time_budget_seconds = 5.0;
  long max_node_budget = 50'000'000;
  std::size_t max_mem_budget_bytes = std::size_t{1} << 30;
  JsonLimits json;
};

enum class Cmd { kSelect, kPing, kStats, kIntrospect };

/// One task of an inline task set: an explicit configuration curve, or a
/// single-block DFG the server lifts into a curve via the identification
/// pipeline (enumerate -> disjoint pool -> knapsack sweep).
struct TaskSpec {
  std::string name;
  double period = 0;  // cycles; deadline == period
  std::vector<select::Config> configs;  // explicit curve ([area, cycles]...)
  bool has_dfg = false;
  ir::Program program{""};  // single-block program built from "dfg"
};

struct Request {
  std::string id;  // echoed verbatim; "" when absent
  Cmd cmd = Cmd::kPing;
  rt::Policy policy = rt::Policy::kEdf;
  // Task set, exactly one of:
  std::vector<std::string> benchmarks;  // server-side DFG refs, with
  double u0 = 0;                        // software-only utilization (required)
  std::vector<TaskSpec> tasks;          // inline tasks with explicit periods
  // Area constraint, exactly one of:
  bool has_budget_fraction = false;
  double budget_fraction = 0;  // of the task set's Max_Area
  bool has_area_budget = false;
  double area_budget = 0;  // absolute adder-equivalents
  // Per-request execution budget (0 / -1 / 0 = use the server defaults).
  double time_budget_seconds = 0;
  long node_budget = -1;
  std::size_t mem_budget_bytes = 0;
  bool budget_clamped = false;  // some requested budget exceeded the cap
  bool paranoid = false;        // exhaustive certification for this request
};

struct DecodeError {
  ErrorCode code = ErrorCode::kBadRequest;
  std::string message;
  /// The request id when the JSON parsed far enough to yield one, so even a
  /// rejected request gets a correlatable response; "" otherwise.
  std::string id;
};

using DecodeResult = std::variant<Request, DecodeError>;

/// Total function from request bytes to Request-or-error. Never throws.
DecodeResult decode_request(std::string_view line, const RequestLimits& limits);

/// Extra members appended to a failure's error object (the worker-pool
/// failures carry the signal, worker index, kill count and crash dump path).
using ErrorFields = std::function<void(util::JsonWriter&)>;

/// One failure response line (no trailing newline).
/// retry_after_ms >= 0 adds the overload retry hint; rid != 0 adds the
/// server-assigned request id correlating the response with its
/// flight-recorder records (`isex tail --rid N`).
std::string render_error(const std::string& id, ErrorCode code,
                         const std::string& message, long retry_after_ms = -1,
                         std::uint64_t rid = 0, const ErrorFields& extra = {});

/// The stable `result` object of a successful select response: everything
/// deterministic under a node-budget — status, claims, assignment,
/// certificate — and nothing volatile (wall-clock times, queue depth). The
/// cache stores exactly this string, which is what makes "cache hits are
/// byte-identical to cold solves" a checkable contract.
std::string render_select_result(
    const rt::TaskSet& ts, double area_budget, rt::Policy policy,
    const robust::Outcome<customize::SelectionResult>& out, int shed_rung);

/// Wraps a result object into a full response line (no trailing newline),
/// attaching the volatile envelope fields. rid != 0 adds the
/// flight-recorder correlation id.
std::string render_success(const std::string& id, const std::string& result,
                           bool cache_hit, int queue_depth, double elapsed_ms,
                           long nodes_charged, std::uint64_t rid = 0);

}  // namespace isex::serve
