#include "isex/serve/protocol.hpp"

#include <cmath>
#include <map>
#include <utility>

#include "isex/obs/metrics.hpp"

namespace isex::serve {

const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kTooLarge: return "too_large";
    case ErrorCode::kOverload: return "overload";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kWorkerCrashed: return "worker_crashed";
    case ErrorCode::kWorkerTimeout: return "worker_timeout";
    case ErrorCode::kQuarantined: return "quarantined";
    case ErrorCode::kWorkerUnavailable: return "worker_unavailable";
  }
  return "?";
}

namespace {

/// Decode-time failure collector: the first schema violation wins and the
/// whole decode aborts into a DecodeError.
struct Fail {
  DecodeError err;
  bool failed = false;

  bool bad(const std::string& message) {
    if (!failed) {
      failed = true;
      err = {ErrorCode::kBadRequest, message, ""};
    }
    return false;
  }
};

bool finite_number(const Json* j, double* out) {
  if (j == nullptr || !j->is_number()) return false;
  *out = j->as_number();
  return std::isfinite(*out);
}

/// Reverse map of ir::opcode_name, built once.
bool parse_opcode(const std::string& name, ir::Opcode* out) {
  static const std::map<std::string, ir::Opcode, std::less<>> table = [] {
    std::map<std::string, ir::Opcode, std::less<>> t;
    for (int i = 0; i < ir::kNumOpcodes; ++i) {
      const auto op = static_cast<ir::Opcode>(i);
      t.emplace(std::string(ir::opcode_name(op)), op);
    }
    return t;
  }();
  const auto it = table.find(name);
  if (it == table.end()) return false;
  *out = it->second;
  return true;
}

/// "dfg": [{"op":"add","in":[0,1],"out":true}, ...] — operand indices must
/// reference earlier ops (the DAG topological-order invariant). Ops whose
/// value nothing consumes are implicitly live-out, so every op contributes
/// to the block's outputs unless explicitly consumed.
bool decode_dfg(const Json& ops, const RequestLimits& limits, TaskSpec* spec,
                Fail* f) {
  if (!ops.is_array()) return f->bad("task dfg must be an array of ops");
  const auto& items = ops.items();
  if (items.empty()) return f->bad("task dfg must not be empty");
  if (items.size() > static_cast<std::size_t>(limits.max_dfg_nodes))
    return f->bad("task dfg has " + std::to_string(items.size()) +
                  " ops; limit " + std::to_string(limits.max_dfg_nodes));
  spec->program = ir::Program(spec->name);
  const int block = spec->program.add_block("b0");
  ir::Dfg& dfg = spec->program.block(block).dfg;
  std::vector<bool> consumed(items.size(), false);
  std::vector<bool> explicit_out(items.size(), false);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Json& node = items[i];
    if (!node.is_object()) return f->bad("dfg op must be an object");
    const Json* opname = node.find("op");
    if (opname == nullptr || !opname->is_string())
      return f->bad("dfg op needs a string \"op\"");
    ir::Opcode op;
    if (!parse_opcode(opname->as_string(), &op))
      return f->bad("unknown opcode '" + opname->as_string() + "'");
    std::vector<ir::NodeId> operands;
    if (const Json* in = node.find("in"); in != nullptr) {
      if (!in->is_array()) return f->bad("dfg op \"in\" must be an array");
      if (in->items().size() > 8)
        return f->bad("dfg op has more than 8 operands");
      for (const Json& o : in->items()) {
        double v = 0;
        if (!finite_number(&o, &v) || v != std::floor(v) || v < 0 ||
            v >= static_cast<double>(i))
          return f->bad("dfg op " + std::to_string(i) +
                        ": operands must be indices of earlier ops");
        operands.push_back(static_cast<ir::NodeId>(v));
        consumed[static_cast<std::size_t>(v)] = true;
      }
    }
    if (const Json* out = node.find("out"); out != nullptr) {
      if (!out->is_bool()) return f->bad("dfg op \"out\" must be a bool");
      explicit_out[i] = out->as_bool();
    }
    dfg.add(op, std::move(operands));
  }
  for (std::size_t i = 0; i < items.size(); ++i)
    if (explicit_out[i] || !consumed[i])
      dfg.mark_live_out(static_cast<ir::NodeId>(i));
  spec->program.set_root(spec->program.stmt_block(block));
  spec->has_dfg = true;
  return true;
}

bool decode_task(const Json& t, const RequestLimits& limits, TaskSpec* spec,
                 Fail* f) {
  if (!t.is_object()) return f->bad("tasks entries must be objects");
  if (const Json* name = t.find("name"); name != nullptr) {
    if (!name->is_string() || name->as_string().empty() ||
        name->as_string().size() > limits.max_id_bytes)
      return f->bad("task name must be a non-empty string");
    spec->name = name->as_string();
  } else {
    return f->bad("inline task needs a \"name\"");
  }
  double period = 0;
  if (!finite_number(t.find("period"), &period) || period <= 0)
    return f->bad("task '" + spec->name + "': period must be a positive number");
  spec->period = period;

  const Json* configs = t.find("configs");
  const Json* dfg = t.find("dfg");
  if ((configs != nullptr) == (dfg != nullptr))
    return f->bad("task '" + spec->name +
                  "': exactly one of \"configs\" or \"dfg\" required");
  if (dfg != nullptr) return decode_dfg(*dfg, limits, spec, f);

  if (!configs->is_array() || configs->items().empty())
    return f->bad("task '" + spec->name + "': configs must be a non-empty array");
  if (configs->items().size() > static_cast<std::size_t>(limits.max_configs))
    return f->bad("task '" + spec->name + "': more than " +
                  std::to_string(limits.max_configs) + " configs");
  for (const Json& c : configs->items()) {
    // [area, cycles] pairs; area ascending with [0] the zero-area software
    // point is validated later by TaskSet::validate.
    if (!c.is_array() || c.items().size() != 2)
      return f->bad("task '" + spec->name + "': configs are [area, cycles] pairs");
    double area = 0, cycles = 0;
    if (!finite_number(&c.items()[0], &area) ||
        !finite_number(&c.items()[1], &cycles) || area < 0 || cycles <= 0)
      return f->bad("task '" + spec->name +
                    "': config area must be >= 0 and cycles > 0");
    spec->configs.push_back({area, cycles});
  }
  return true;
}

}  // namespace

DecodeResult decode_request(std::string_view line,
                            const RequestLimits& limits) {
  if (line.size() > limits.max_request_bytes)
    return DecodeError{ErrorCode::kTooLarge,
                       "request of " + std::to_string(line.size()) +
                           " bytes exceeds the " +
                           std::to_string(limits.max_request_bytes) +
                           "-byte limit",
                       ""};
  JsonParseResult parsed = json_parse(line, limits.json);
  if (!parsed.ok())
    return DecodeError{ErrorCode::kParseError, parsed.error, ""};
  const Json& root = parsed.value;
  if (!root.is_object())
    return DecodeError{ErrorCode::kBadRequest,
                       "request must be a JSON object", ""};

  Request req;
  Fail f;
  if (const Json* id = root.find("id"); id != nullptr) {
    if (!id->is_string())
      return DecodeError{ErrorCode::kBadRequest, "\"id\" must be a string",
                         ""};
    if (id->as_string().size() > limits.max_id_bytes)
      return DecodeError{ErrorCode::kBadRequest,
                         "\"id\" longer than " +
                             std::to_string(limits.max_id_bytes) + " bytes",
                         ""};
    req.id = id->as_string();
  }

  const Json* cmd = root.find("cmd");
  if (cmd == nullptr || !cmd->is_string())
    return DecodeError{ErrorCode::kBadRequest, "\"cmd\" (string) is required",
                       req.id};
  const std::string& c = cmd->as_string();
  if (c == "ping") {
    req.cmd = Cmd::kPing;
    return req;
  }
  if (c == "stats") {
    req.cmd = Cmd::kStats;
    return req;
  }
  if (c == "introspect") {
    req.cmd = Cmd::kIntrospect;
    return req;
  }
  if (c != "select")
    return DecodeError{ErrorCode::kBadRequest,
                       "unknown cmd '" + c +
                           "' (expected select, ping, stats or introspect)",
                       req.id};
  req.cmd = Cmd::kSelect;

  if (const Json* policy = root.find("policy"); policy != nullptr) {
    if (!policy->is_string() ||
        (policy->as_string() != "edf" && policy->as_string() != "rms"))
      f.bad("\"policy\" must be \"edf\" or \"rms\"");
    else
      req.policy = policy->as_string() == "rms" ? rt::Policy::kRms
                                                : rt::Policy::kEdf;
  }

  const Json* benchmarks = root.find("benchmarks");
  const Json* tasks = root.find("tasks");
  if ((benchmarks != nullptr) == (tasks != nullptr))
    f.bad("exactly one of \"benchmarks\" or \"tasks\" is required");
  if (!f.failed && benchmarks != nullptr) {
    if (!benchmarks->is_array() || benchmarks->items().empty())
      f.bad("\"benchmarks\" must be a non-empty array of names");
    else if (benchmarks->items().size() >
             static_cast<std::size_t>(limits.max_tasks))
      f.bad("more than " + std::to_string(limits.max_tasks) + " benchmarks");
    else
      for (const Json& b : benchmarks->items()) {
        if (!b.is_string() || b.as_string().empty() ||
            b.as_string().size() > limits.max_id_bytes) {
          f.bad("benchmark names must be non-empty strings");
          break;
        }
        req.benchmarks.push_back(b.as_string());
      }
    double u0 = 0;
    if (!finite_number(root.find("u0"), &u0) || u0 <= 0 || u0 > 64)
      f.bad("\"u0\" must be a number in (0, 64] with \"benchmarks\"");
    else
      req.u0 = u0;
  }
  if (!f.failed && tasks != nullptr) {
    if (!tasks->is_array() || tasks->items().empty())
      f.bad("\"tasks\" must be a non-empty array");
    else if (tasks->items().size() > static_cast<std::size_t>(limits.max_tasks))
      f.bad("more than " + std::to_string(limits.max_tasks) + " tasks");
    else
      for (const Json& t : tasks->items()) {
        TaskSpec spec;
        if (!decode_task(t, limits, &spec, &f)) break;
        req.tasks.push_back(std::move(spec));
      }
  }

  const Json* frac = root.find("budget_fraction");
  const Json* area = root.find("area_budget");
  if (!f.failed) {
    if ((frac != nullptr) == (area != nullptr)) {
      f.bad("exactly one of \"budget_fraction\" or \"area_budget\" is required");
    } else if (frac != nullptr) {
      double v = 0;
      if (!finite_number(frac, &v) || v < 0 || v > 1)
        f.bad("\"budget_fraction\" must be a number in [0, 1]");
      req.has_budget_fraction = true;
      req.budget_fraction = v;
    } else {
      double v = 0;
      if (!finite_number(area, &v) || v < 0 || v > 1e9)
        f.bad("\"area_budget\" must be a number in [0, 1e9]");
      req.has_area_budget = true;
      req.area_budget = v;
    }
  }

  if (const Json* tb = root.find("time_budget_ms"); tb != nullptr) {
    double v = 0;
    if (!finite_number(tb, &v) || v <= 0)
      f.bad("\"time_budget_ms\" must be a positive number");
    else {
      req.time_budget_seconds = v * 1e-3;
      if (req.time_budget_seconds > limits.max_time_budget_seconds) {
        req.time_budget_seconds = limits.max_time_budget_seconds;
        req.budget_clamped = true;
      }
    }
  }
  if (const Json* nb = root.find("node_budget"); nb != nullptr) {
    double v = 0;
    if (!finite_number(nb, &v) || v < 1 || v != std::floor(v))
      f.bad("\"node_budget\" must be a positive integer");
    else {
      req.node_budget = v > static_cast<double>(limits.max_node_budget)
                            ? limits.max_node_budget
                            : static_cast<long>(v);
      req.budget_clamped |= v > static_cast<double>(limits.max_node_budget);
    }
  }
  if (const Json* mb = root.find("mem_budget_bytes"); mb != nullptr) {
    double v = 0;
    if (!finite_number(mb, &v) || v < 1 || v != std::floor(v))
      f.bad("\"mem_budget_bytes\" must be a positive integer");
    else {
      const double cap = static_cast<double>(limits.max_mem_budget_bytes);
      req.mem_budget_bytes =
          static_cast<std::size_t>(v > cap ? cap : v);
      req.budget_clamped |= v > cap;
    }
  }
  if (const Json* p = root.find("paranoid"); p != nullptr) {
    if (!p->is_bool())
      f.bad("\"paranoid\" must be a bool");
    else
      req.paranoid = p->as_bool();
  }

  if (f.failed) {
    f.err.id = req.id;  // correlate the rejection with the request
    return f.err;
  }
  return req;
}

namespace {

/// The envelope's leading members: the request id (null when the request
/// carried none) and the flight-recorder rid when one was assigned.
void write_ids(util::JsonWriter& w, const std::string& id, std::uint64_t rid) {
  w.key("id");
  if (id.empty())
    w.null();
  else
    w.string(id);
  if (rid != 0) w.key("rid").integer(rid);
}

}  // namespace

std::string render_error(const std::string& id, ErrorCode code,
                         const std::string& message, long retry_after_ms,
                         std::uint64_t rid, const ErrorFields& extra) {
  ISEX_COUNT("serve.responses.errors");
  util::JsonWriter w;
  w.begin_object();
  write_ids(w, id, rid);
  w.key("ok").boolean(false).key("error").begin_object();
  w.key("code").string(to_string(code)).key("message").string(message);
  if (extra) extra(w);
  w.end_object();
  if (retry_after_ms >= 0) w.key("retry_after_ms").integer(retry_after_ms);
  return w.end_object().take();
}

std::string render_select_result(
    const rt::TaskSet& ts, double area_budget, rt::Policy policy,
    const robust::Outcome<customize::SelectionResult>& out, int shed_rung) {
  const customize::SelectionResult& r = out.value;
  util::JsonWriter w;
  w.begin_object().key("cmd").string("select");
  w.key("policy").string(policy == rt::Policy::kRms ? "rms" : "edf");
  w.key("status").string(robust::to_string(out.status));
  w.key("schedulable").boolean(r.schedulable);
  w.key("utilization").number(r.utilization);
  w.key("area_used").number(r.area_used);
  w.key("area_budget").number(area_budget);
  w.key("gap").number(out.optimality_gap);
  w.key("shed_rung").integer(shed_rung);
  w.key("detail").string(out.detail);
  w.key("tasks").begin_array();
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const rt::Task& t = ts.tasks[i];
    const int cfg = i < r.assignment.size() ? r.assignment[i] : 0;
    const auto& c = t.configs[static_cast<std::size_t>(cfg)];
    w.begin_object().key("name").string(t.name);
    w.key("period").number(t.period).key("config").integer(cfg);
    w.key("area").number(c.area).key("cycles").number(c.cycles).end_object();
  }
  w.end_array().key("certificate").begin_object();
  w.key("ok").boolean(out.certificate.ok());
  w.key("checks").integer(out.certificate.checks);
  w.key("violations").begin_array();
  for (const auto& v : out.certificate.violations)
    w.begin_object().key("check").string(v.check).key("message").string(
        v.message).end_object();
  return w.end_array().end_object().end_object().take();
}

std::string render_success(const std::string& id, const std::string& result,
                           bool cache_hit, int queue_depth, double elapsed_ms,
                           long nodes_charged, std::uint64_t rid) {
  ISEX_COUNT("serve.responses.ok");
  util::JsonWriter w;
  w.begin_object();
  write_ids(w, id, rid);
  w.key("ok").boolean(true).key("cache").string(cache_hit ? "hit" : "miss");
  w.key("queue_depth").integer(queue_depth);
  w.key("elapsed_ms").number(elapsed_ms, 3);
  w.key("nodes").integer(nodes_charged);
  return w.key("result").raw(result).end_object().take();
}

}  // namespace isex::serve
