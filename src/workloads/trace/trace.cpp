#include "workloads/trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

#include "common/rng.hpp"
#include "kernels/ep.hpp"
#include "workloads/workloads.hpp"

namespace vgpu::workloads::trace {

namespace {

constexpr const char* kMagic = "vgpu-mix-trace";
constexpr const char* kVersion = "v1";

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Status parse_i64(const std::string& s, std::int64_t* out) {
  if (s.empty()) return InvalidArgument("empty integer field");
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) {
    return InvalidArgument("bad integer '" + s + "'");
  }
  *out = v;
  return Status::Ok();
}

Status parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-') {
    return InvalidArgument("bad unsigned integer '" + s + "'");
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) {
    return InvalidArgument("bad unsigned integer '" + s + "'");
  }
  *out = v;
  return Status::Ok();
}

Status parse_f64(const std::string& s, double* out) {
  if (s.empty()) return InvalidArgument("empty number field");
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) {
    return InvalidArgument("bad number '" + s + "'");
  }
  *out = v;
  return Status::Ok();
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(std::move(tok));
  return tokens;
}

/// FNV-1a over the kernel name, mixed with the scale: the deterministic
/// input-filler seed shared by both replay paths.
std::uint64_t shape_seed(const std::string& kernel, long scale) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : kernel) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h ^ (static_cast<std::uint64_t>(scale) * 0x9e3779b97f4a7c15ULL);
}

/// Open-loop arrival synthesis for one tenant. Exponential gaps from the
/// tenant's private xoshiro stream; bursty tenants draw at the boosted
/// rate and skip across idle windows; diurnal tenants thin a 2x-rate
/// stream against a triangle wave over the horizon.
void generate_ops(const TenantSpec& t, std::uint64_t mix_seed,
                  std::int64_t horizon_us, std::vector<TraceOp>* ops) {
  if (t.arrival == ArrivalKind::kClosedLoop) return;
  if (t.rate_hz <= 0.0) return;
  SplitMix64 sm(mix_seed ^
                (0x51d9f3a7b2c4e681ULL *
                 (static_cast<std::uint64_t>(t.id) + 1)));
  Rng rng(sm.next());
  const bool bursty = t.arrival == ArrivalKind::kBursty &&
                      t.burst_ms > 0.0 && t.idle_ms > 0.0;
  const double cycle_us = (t.burst_ms + t.idle_ms) * 1000.0;
  const double on_us = t.burst_ms * 1000.0;
  double rate_hz = t.rate_hz;
  if (bursty) rate_hz *= std::max(1.0, t.burst_factor);
  if (t.arrival == ArrivalKind::kDiurnal) rate_hz *= 2.0;  // thinned below
  const double mean_gap_us = 1e6 / rate_hz;

  double now_us = 0.0;
  int seq = 0;
  while (t.jobs <= 0 || seq < t.jobs) {
    const double u = rng.next_double();
    now_us += -std::log(1.0 - u) * mean_gap_us;
    if (bursty) {
      // Arrivals only exist inside on-windows: anything landing in the
      // idle tail slides to the next window's start.
      const double phase = now_us - std::floor(now_us / cycle_us) * cycle_us;
      if (phase >= on_us) now_us += cycle_us - phase;
    }
    if (now_us >= static_cast<double>(horizon_us)) break;
    if (t.arrival == ArrivalKind::kDiurnal) {
      // Triangle wave: load ramps 0 -> peak -> 0 across the horizon.
      const double frac = now_us / static_cast<double>(horizon_us);
      const double tri = 1.0 - std::fabs(2.0 * frac - 1.0);
      if (rng.next_double() >= tri) continue;  // thinned out
    }
    ops->push_back(TraceOp{static_cast<std::int64_t>(now_us), t.id, seq});
    ++seq;
  }
}

}  // namespace

const char* arrival_name(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kBursty: return "bursty";
    case ArrivalKind::kDiurnal: return "diurnal";
    case ArrivalKind::kClosedLoop: return "closed_loop";
  }
  return "?";
}

StatusOr<ArrivalKind> parse_arrival(const std::string& name) {
  if (name == "poisson") return ArrivalKind::kPoisson;
  if (name == "bursty") return ArrivalKind::kBursty;
  if (name == "diurnal") return ArrivalKind::kDiurnal;
  if (name == "closed_loop") return ArrivalKind::kClosedLoop;
  return InvalidArgument("unknown arrival kind '" + name + "'");
}

const TenantSpec* Trace::find_tenant(int id) const {
  for (const TenantSpec& t : tenants) {
    if (t.id == id) return &t;
  }
  return nullptr;
}

std::string Trace::serialize() const {
  std::string out;
  out += std::string(kMagic) + " " + kVersion + "\n";
  out += "mix " + mix + "\n";
  out += "seed " + std::to_string(seed) + "\n";
  out += "horizon_us " + std::to_string(horizon_us) + "\n";
  for (const TenantSpec& t : tenants) {
    out += "tenant id=" + std::to_string(t.id) + " name=" + t.name +
           " arrival=" + arrival_name(t.arrival) + " kernel=" + t.kernel +
           " scale=" + std::to_string(t.scale) +
           " jobs=" + std::to_string(t.jobs) +
           " rate_hz=" + fmt_double(t.rate_hz) +
           " burst_factor=" + fmt_double(t.burst_factor) +
           " burst_ms=" + fmt_double(t.burst_ms) +
           " idle_ms=" + fmt_double(t.idle_ms) +
           " think_ms=" + fmt_double(t.think_ms) +
           " workers=" + std::to_string(t.workers) +
           " priority=" + std::to_string(t.priority) +
           " weight=" + fmt_double(t.weight) +
           " graph=" + (t.graph ? "1" : "0") +
           " slo_p50_ms=" + fmt_double(t.slo_p50_ms) +
           " slo_p99_ms=" + fmt_double(t.slo_p99_ms) + "\n";
  }
  for (const TraceOp& op : ops) {
    out += "op " + std::to_string(op.t_us) + " " +
           std::to_string(op.tenant) + " " + std::to_string(op.seq) + "\n";
  }
  out += "end\n";
  return out;
}

StatusOr<Trace> parse(const std::string& text) {
  std::vector<std::string> lines;
  {
    std::string::size_type pos = 0;
    while (pos <= text.size()) {
      const auto nl = text.find('\n', pos);
      if (nl == std::string::npos) {
        lines.push_back(text.substr(pos));
        break;
      }
      lines.push_back(text.substr(pos, nl - pos));
      pos = nl + 1;
    }
  }
  std::size_t i = 0;
  const auto next_line = [&]() -> const std::string* {
    return i < lines.size() ? &lines[i++] : nullptr;
  };

  const std::string* line = next_line();
  if (line == nullptr) return InvalidArgument("empty trace");
  {
    const auto header = split_ws(*line);
    if (header.size() != 2 || header[0] != kMagic) {
      return InvalidArgument("not a " + std::string(kMagic) + " file");
    }
    if (header[1] != kVersion) {
      return InvalidArgument("unsupported trace version '" + header[1] +
                             "' (this build reads " + kVersion + ")");
    }
  }

  Trace trace;
  // Fixed preamble: mix, seed, horizon_us — in that order.
  if ((line = next_line()) == nullptr) {
    return InvalidArgument("truncated trace: missing 'mix'");
  }
  {
    const auto toks = split_ws(*line);
    if (toks.size() != 2 || toks[0] != "mix") {
      return InvalidArgument("expected 'mix <name>', got '" + *line + "'");
    }
    trace.mix = toks[1];
  }
  if ((line = next_line()) == nullptr) {
    return InvalidArgument("truncated trace: missing 'seed'");
  }
  {
    const auto toks = split_ws(*line);
    if (toks.size() != 2 || toks[0] != "seed") {
      return InvalidArgument("expected 'seed <n>', got '" + *line + "'");
    }
    VGPU_RETURN_IF_ERROR(parse_u64(toks[1], &trace.seed));
  }
  if ((line = next_line()) == nullptr) {
    return InvalidArgument("truncated trace: missing 'horizon_us'");
  }
  {
    const auto toks = split_ws(*line);
    if (toks.size() != 2 || toks[0] != "horizon_us") {
      return InvalidArgument("expected 'horizon_us <n>', got '" + *line +
                             "'");
    }
    VGPU_RETURN_IF_ERROR(parse_i64(toks[1], &trace.horizon_us));
    if (trace.horizon_us < 0) {
      return InvalidArgument("negative horizon_us");
    }
  }

  const auto shapes = job_shape_names();
  std::map<int, int> next_seq;  // per-tenant expected op sequence
  bool saw_end = false;
  bool in_ops = false;
  std::int64_t last_t_us = 0;
  while ((line = next_line()) != nullptr) {
    if (saw_end) {
      if (!line->empty()) {
        return InvalidArgument("trailing data after 'end': '" + *line + "'");
      }
      continue;
    }
    const auto toks = split_ws(*line);
    if (toks.empty()) {
      return InvalidArgument("blank line inside trace body");
    }
    if (toks[0] == "end") {
      if (toks.size() != 1) {
        return InvalidArgument("malformed 'end' trailer");
      }
      saw_end = true;
      continue;
    }
    if (toks[0] == "tenant") {
      if (in_ops) {
        return InvalidArgument("tenant line after op lines");
      }
      TenantSpec t;
      bool have_id = false, have_name = false;
      for (std::size_t k = 1; k < toks.size(); ++k) {
        const auto eq = toks[k].find('=');
        if (eq == std::string::npos) {
          return InvalidArgument("tenant field without '=': '" + toks[k] +
                                 "'");
        }
        const std::string key = toks[k].substr(0, eq);
        const std::string val = toks[k].substr(eq + 1);
        std::int64_t i64 = 0;
        double f64 = 0.0;
        if (key == "id") {
          VGPU_RETURN_IF_ERROR(parse_i64(val, &i64));
          t.id = static_cast<int>(i64);
          have_id = true;
        } else if (key == "name") {
          if (val.empty()) return InvalidArgument("empty tenant name");
          t.name = val;
          have_name = true;
        } else if (key == "arrival") {
          auto kind = parse_arrival(val);
          VGPU_RETURN_IF_ERROR(kind.status());
          t.arrival = *kind;
        } else if (key == "kernel") {
          if (std::find(shapes.begin(), shapes.end(), val) == shapes.end()) {
            return InvalidArgument("unknown kernel '" + val + "'");
          }
          t.kernel = val;
        } else if (key == "scale") {
          VGPU_RETURN_IF_ERROR(parse_i64(val, &i64));
          if (i64 <= 0) return InvalidArgument("non-positive scale");
          t.scale = static_cast<long>(i64);
        } else if (key == "jobs") {
          VGPU_RETURN_IF_ERROR(parse_i64(val, &i64));
          if (i64 < 0) return InvalidArgument("negative jobs");
          t.jobs = static_cast<int>(i64);
        } else if (key == "rate_hz") {
          VGPU_RETURN_IF_ERROR(parse_f64(val, &f64));
          t.rate_hz = f64;
        } else if (key == "burst_factor") {
          VGPU_RETURN_IF_ERROR(parse_f64(val, &f64));
          t.burst_factor = f64;
        } else if (key == "burst_ms") {
          VGPU_RETURN_IF_ERROR(parse_f64(val, &f64));
          t.burst_ms = f64;
        } else if (key == "idle_ms") {
          VGPU_RETURN_IF_ERROR(parse_f64(val, &f64));
          t.idle_ms = f64;
        } else if (key == "think_ms") {
          VGPU_RETURN_IF_ERROR(parse_f64(val, &f64));
          if (f64 < 0.0) return InvalidArgument("negative think_ms");
          t.think_ms = f64;
        } else if (key == "workers") {
          VGPU_RETURN_IF_ERROR(parse_i64(val, &i64));
          if (i64 <= 0) return InvalidArgument("non-positive workers");
          t.workers = static_cast<int>(i64);
        } else if (key == "priority") {
          VGPU_RETURN_IF_ERROR(parse_i64(val, &i64));
          t.priority = static_cast<int>(i64);
        } else if (key == "weight") {
          VGPU_RETURN_IF_ERROR(parse_f64(val, &f64));
          if (f64 <= 0.0) return InvalidArgument("non-positive weight");
          t.weight = f64;
        } else if (key == "graph") {
          VGPU_RETURN_IF_ERROR(parse_i64(val, &i64));
          t.graph = i64 != 0;
        } else if (key == "slo_p50_ms") {
          VGPU_RETURN_IF_ERROR(parse_f64(val, &f64));
          t.slo_p50_ms = f64;
        } else if (key == "slo_p99_ms") {
          VGPU_RETURN_IF_ERROR(parse_f64(val, &f64));
          t.slo_p99_ms = f64;
        } else {
          return InvalidArgument("unknown tenant field '" + key + "'");
        }
      }
      if (!have_id || !have_name) {
        return InvalidArgument("tenant line missing id= or name=");
      }
      if (trace.find_tenant(t.id) != nullptr) {
        return InvalidArgument("duplicate tenant id " +
                               std::to_string(t.id));
      }
      trace.tenants.push_back(std::move(t));
      continue;
    }
    if (toks[0] == "op") {
      in_ops = true;
      if (toks.size() != 4) {
        return InvalidArgument("malformed op line '" + *line + "'");
      }
      std::int64_t t_us = 0, tenant = 0, seq = 0;
      VGPU_RETURN_IF_ERROR(parse_i64(toks[1], &t_us));
      VGPU_RETURN_IF_ERROR(parse_i64(toks[2], &tenant));
      VGPU_RETURN_IF_ERROR(parse_i64(toks[3], &seq));
      if (t_us < 0) return InvalidArgument("negative op time");
      if (t_us < last_t_us) {
        return InvalidArgument("op times out of order at t_us=" +
                               std::to_string(t_us));
      }
      const TenantSpec* spec = trace.find_tenant(static_cast<int>(tenant));
      if (spec == nullptr) {
        return InvalidArgument("op references unknown tenant " +
                               std::to_string(tenant));
      }
      if (spec->arrival == ArrivalKind::kClosedLoop) {
        return InvalidArgument("op on closed-loop tenant " +
                               std::to_string(tenant));
      }
      int& expect = next_seq[static_cast<int>(tenant)];
      if (seq != expect) {
        return InvalidArgument("op sequence gap for tenant " +
                               std::to_string(tenant) + ": expected " +
                               std::to_string(expect) + ", got " +
                               std::to_string(seq));
      }
      ++expect;
      last_t_us = t_us;
      trace.ops.push_back(TraceOp{t_us, static_cast<int>(tenant),
                                  static_cast<int>(seq)});
      continue;
    }
    return InvalidArgument("unrecognized trace line '" + *line + "'");
  }
  if (!saw_end) {
    return InvalidArgument("truncated trace: missing 'end' trailer");
  }
  return trace;
}

Trace generate(std::string mix, std::uint64_t seed,
               std::int64_t horizon_us, std::vector<TenantSpec> tenants) {
  Trace trace;
  trace.mix = std::move(mix);
  trace.seed = seed;
  trace.horizon_us = horizon_us;
  trace.tenants = std::move(tenants);
  std::sort(trace.tenants.begin(), trace.tenants.end(),
            [](const TenantSpec& a, const TenantSpec& b) {
              return a.id < b.id;
            });
  for (const TenantSpec& t : trace.tenants) {
    generate_ops(t, seed, horizon_us, &trace.ops);
  }
  std::sort(trace.ops.begin(), trace.ops.end(),
            [](const TraceOp& a, const TraceOp& b) {
              if (a.t_us != b.t_us) return a.t_us < b.t_us;
              if (a.tenant != b.tenant) return a.tenant < b.tenant;
              return a.seq < b.seq;
            });
  return trace;
}

std::vector<std::string> canonical_mix_names() {
  return {"inference_training", "risk_batch", "diurnal_frontend"};
}

StatusOr<Trace> canonical_mix(const std::string& name,
                              std::int64_t horizon_us, std::uint64_t seed) {
  constexpr std::int64_t kDefaultHorizonUs = 2'000'000;
  const std::int64_t horizon =
      horizon_us > 0 ? horizon_us : kDefaultHorizonUs;
  // Job budgets scale with the horizon so smoke traces keep the same
  // tenant structure at CI size.
  const double h = static_cast<double>(horizon) / 1e6;  // seconds
  const auto jobs_for = [&](double rate_hz) {
    return static_cast<int>(rate_hz * h) + 8;
  };

  std::vector<TenantSpec> tenants;
  if (name == "inference_training") {
    // Latency-sensitive bursty inference tenant sharing the device with a
    // closed-loop training job — the canonical co-location case.
    TenantSpec infer;
    infer.id = 0;
    infer.name = "infer";
    infer.arrival = ArrivalKind::kBursty;
    infer.kernel = "vecadd";
    infer.scale = 4096;
    infer.rate_hz = 120.0;
    infer.burst_factor = 4.0;
    infer.burst_ms = 60.0;
    infer.idle_ms = 140.0;
    infer.jobs = jobs_for(infer.rate_hz);
    infer.workers = 2;
    infer.priority = 4;
    infer.weight = 2.0;
    infer.graph = true;
    infer.slo_p50_ms = 5.0;
    infer.slo_p99_ms = 25.0;
    TenantSpec train;
    train.id = 1;
    train.name = "train";
    train.arrival = ArrivalKind::kClosedLoop;
    train.kernel = "sgemm";
    train.scale = 48;
    train.jobs = std::max(4, static_cast<int>(20.0 * h));
    train.think_ms = 2.0;
    train.workers = 1;
    train.weight = 1.0;
    tenants = {infer, train};
  } else if (name == "risk_batch") {
    // Prades et al.'s case: a bursty Monte Carlo financial-risk tenant
    // (Black-Scholes) rides along with steady service traffic and a
    // batch tenant.
    TenantSpec risk;
    risk.id = 0;
    risk.name = "risk";
    risk.arrival = ArrivalKind::kBursty;
    risk.kernel = "blackscholes";
    risk.scale = 2048;
    risk.rate_hz = 80.0;
    risk.burst_factor = 6.0;
    risk.burst_ms = 50.0;
    risk.idle_ms = 250.0;
    risk.jobs = jobs_for(risk.rate_hz);
    risk.workers = 2;
    risk.priority = 3;
    risk.weight = 2.0;
    risk.slo_p99_ms = 40.0;
    TenantSpec steady;
    steady.id = 1;
    steady.name = "steady";
    steady.arrival = ArrivalKind::kPoisson;
    steady.kernel = "vecadd";
    steady.scale = 8192;
    steady.rate_hz = 60.0;
    steady.jobs = jobs_for(steady.rate_hz);
    steady.workers = 2;
    steady.weight = 1.0;
    steady.slo_p99_ms = 30.0;
    TenantSpec batch;
    batch.id = 2;
    batch.name = "batch";
    batch.arrival = ArrivalKind::kClosedLoop;
    batch.kernel = "sgemm";
    batch.scale = 64;
    batch.jobs = std::max(4, static_cast<int>(15.0 * h));
    batch.think_ms = 1.0;
    batch.workers = 1;
    batch.weight = 1.0;
    tenants = {risk, steady, batch};
  } else if (name == "diurnal_frontend") {
    // A front-end whose load swings across the trace (day/night ramp)
    // over a steady telemetry stream and background training.
    TenantSpec front;
    front.id = 0;
    front.name = "frontend";
    front.arrival = ArrivalKind::kDiurnal;
    front.kernel = "blackscholes";
    front.scale = 1024;
    front.rate_hz = 100.0;
    front.jobs = jobs_for(front.rate_hz);
    front.workers = 2;
    front.priority = 2;
    front.weight = 2.0;
    front.slo_p50_ms = 5.0;
    front.slo_p99_ms = 30.0;
    TenantSpec telemetry;
    telemetry.id = 1;
    telemetry.name = "telemetry";
    telemetry.arrival = ArrivalKind::kPoisson;
    telemetry.kernel = "vecadd";
    telemetry.scale = 2048;
    telemetry.rate_hz = 40.0;
    telemetry.jobs = jobs_for(telemetry.rate_hz);
    telemetry.workers = 1;
    telemetry.weight = 1.0;
    telemetry.slo_p99_ms = 30.0;
    TenantSpec train;
    train.id = 2;
    train.name = "train";
    train.arrival = ArrivalKind::kClosedLoop;
    train.kernel = "sgemm";
    train.scale = 48;
    train.jobs = std::max(4, static_cast<int>(20.0 * h));
    train.think_ms = 2.0;
    train.workers = 1;
    train.weight = 1.0;
    tenants = {front, telemetry, train};
  } else {
    return InvalidArgument("unknown canonical mix '" + name +
                           "' (try: inference_training risk_batch "
                           "diurnal_frontend)");
  }
  return generate(name, seed, horizon, std::move(tenants));
}

std::vector<std::string> job_shape_names() {
  return {"vecadd", "sgemm", "blackscholes", "ep", "mg_vcycle"};
}

StatusOr<JobShape> job_shape(const std::string& kernel, long scale) {
  if (scale <= 0) return InvalidArgument("non-positive job scale");
  JobShape shape;
  shape.kernel = kernel;
  const std::uint64_t fill_seed = shape_seed(kernel, scale);
  if (kernel == "vecadd") {
    const long n = scale;
    shape.params[0] = n;
    shape.bytes_in = 2 * n * 4;
    shape.bytes_out = n * 4;
    shape.timing_plan = vector_add(n).plan;
    shape.functional = true;
    shape.fill = [n, fill_seed](std::span<std::byte> dst) {
      Rng rng(fill_seed);
      auto* f = reinterpret_cast<float*>(dst.data());
      for (long i = 0; i < 2 * n; ++i) {
        f[i] = static_cast<float>(rng.uniform(-8.0, 8.0));
      }
    };
  } else if (kernel == "sgemm") {
    const long n = scale;  // matrix dimension
    const auto nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    shape.params[0] = n;
    shape.bytes_in = static_cast<Bytes>(2 * nn * 4);
    shape.bytes_out = static_cast<Bytes>(nn * 4);
    shape.timing_plan = matmul(static_cast<int>(n)).plan;
    shape.functional = true;
    shape.fill = [nn, fill_seed](std::span<std::byte> dst) {
      Rng rng(fill_seed);
      auto* f = reinterpret_cast<float*>(dst.data());
      for (std::size_t i = 0; i < 2 * nn; ++i) {
        f[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
    };
  } else if (kernel == "blackscholes") {
    const long n = scale;  // option count
    const auto un = static_cast<std::size_t>(n);
    shape.params[0] = n;
    shape.bytes_in = 3 * n * 4;
    shape.bytes_out = 2 * n * 4;
    shape.timing_plan = black_scholes(n, 1).plan;
    shape.functional = true;
    shape.fill = [un, fill_seed](std::span<std::byte> dst) {
      Rng rng(fill_seed);
      auto* f = reinterpret_cast<float*>(dst.data());
      for (std::size_t i = 0; i < un; ++i) {
        f[i] = static_cast<float>(rng.uniform(5.0, 30.0));            // S
        f[un + i] = static_cast<float>(rng.uniform(1.0, 100.0));      // X
        f[2 * un + i] = static_cast<float>(rng.uniform(0.25, 10.0));  // T
      }
    };
  } else if (kernel == "ep") {
    // Timing-only: the live ep kernel folds its pair counts into an
    // EpResult; the DES path runs it through the cost model.
    const long m = scale;
    shape.params[0] = m;
    shape.params[1] = 4;  // blocks
    shape.bytes_in = 0;
    shape.bytes_out = static_cast<Bytes>(sizeof(kernels::EpResult));
    shape.timing_plan = npb_ep(static_cast<int>(m)).plan;
  } else if (kernel == "mg_vcycle") {
    // Timing-only V-cycle on an n^3 grid of doubles.
    const long n = scale;
    const Bytes cells = static_cast<Bytes>(n) * n * n;
    shape.params[0] = n;
    shape.params[1] = 2;  // smoother iterations
    shape.bytes_in = cells * 8;
    shape.bytes_out = cells * 8;
    shape.timing_plan = npb_mg(static_cast<int>(n), 2).plan;
    shape.fill = [cells](std::span<std::byte> dst) {
      auto* d = reinterpret_cast<double*>(dst.data());
      for (Bytes i = 0; i < cells; ++i) {
        d[i] = 0.001 * static_cast<double>(i % 1000);
      }
    };
  } else {
    return InvalidArgument("unknown kernel '" + kernel +
                           "' (try: vecadd sgemm blackscholes ep "
                           "mg_vcycle)");
  }
  if (shape.functional) {
    shape.body = table_body(shape.kernel, {shape.params[0], shape.params[1],
                                           shape.params[2], shape.params[3]});
  }
  return shape;
}

}  // namespace vgpu::workloads::trace
