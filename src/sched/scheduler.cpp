#include "sched/scheduler.hpp"

#include <algorithm>

#include "common/status.hpp"
#include "common/stats.hpp"
#include "sched/policies.hpp"

namespace vgpu::sched {

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kBarrierCoFlush:
      return "barrier";
    case Policy::kTimeQuantum:
      return "tq";
    case Policy::kFairShare:
      return "fair";
    case Policy::kPriorityAging:
      return "prio";
  }
  return "?";
}

bool parse_policy(const std::string& text, Policy* out) {
  if (text == "barrier") {
    *out = Policy::kBarrierCoFlush;
  } else if (text == "tq") {
    *out = Policy::kTimeQuantum;
  } else if (text == "fair") {
    *out = Policy::kFairShare;
  } else if (text == "prio") {
    *out = Policy::kPriorityAging;
  } else {
    return false;
  }
  return true;
}

double SchedStats::wait_percentile(double q) const {
  if (wait_seconds.empty()) return 0.0;
  return percentile(wait_seconds, q);
}

double SchedStats::mean_wait() const {
  if (wait_seconds.empty()) return 0.0;
  double sum = 0.0;
  for (double w : wait_seconds) sum += w;
  return sum / static_cast<double>(wait_seconds.size());
}

std::unique_ptr<Scheduler> Scheduler::make(const SchedulerConfig& config) {
  switch (config.policy) {
    case Policy::kBarrierCoFlush:
      return std::make_unique<BarrierCoFlush>(config);
    case Policy::kTimeQuantum:
      return std::make_unique<TimeQuantum>(config);
    case Policy::kFairShare:
      return std::make_unique<FairShare>(config);
    case Policy::kPriorityAging:
      return std::make_unique<PriorityAging>(config);
  }
  VGPU_ASSERT_MSG(false, "unknown scheduling policy");
  return nullptr;
}

void Scheduler::admit(const ClientRequest& request, SimTime now) {
  VGPU_ASSERT_MSG(clients_.find(request.client) == clients_.end(),
                  "client admitted twice");
  Client& client = clients_[request.client];
  client.request = request;
  ++stats_.admitted;
  do_admit(client, now);
}

void Scheduler::on_release(int client, SimTime now) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  if (it->second.pending) {
    // The client gave up on a round still waiting for its grant (a live
    // client whose STR timed out, e.g. on a barrier partner that already
    // left). Cancel the round exactly as a failure does — BarrierCoFlush
    // shrinks the cohort so the remaining partners are released — rather
    // than let one client's RLS abort the server.
    on_failure(client, now);
    return;
  }
  do_release(client, now);
  clients_.erase(it);
  ++stats_.released;
}

void Scheduler::on_migrate(int client, SimTime now) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  VGPU_ASSERT_MSG(!it->second.pending,
                  "migrate with a round still pending — drain first");
  do_release(client, now);
  clients_.erase(it);
  ++stats_.migrated;
}

void Scheduler::on_failure(int client, SimTime now) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  // Unlike on_release, a pending round is legal here: the client died
  // before its STR could be granted. Drop it so do_pick never grants a
  // ghost. An already-granted in-flight round is left alone — the job
  // completes server-side and its on_complete balances in_flight_.
  it->second.pending = false;
  do_failure(client, now);
  clients_.erase(it);
  ++stats_.failures;
}

void Scheduler::enqueue(int client, SimTime now) {
  Client* c = find(client);
  VGPU_ASSERT_MSG(c != nullptr, "enqueue from unadmitted client");
  VGPU_ASSERT_MSG(!c->pending, "duplicate enqueue before grant");
  c->pending = true;
  c->enqueue_time = now;
  ++stats_.enqueued;
  do_enqueue(*c, now);
}

std::vector<int> Scheduler::pick_next(SimTime now) {
  std::vector<int> batch = do_pick(now);
  if (batch.empty()) return batch;
  ++stats_.batches;
  for (int id : batch) {
    Client* c = find(id);
    VGPU_ASSERT_MSG(c != nullptr && c->pending,
                    "policy granted a client with no pending round");
    on_granted(*c, now);
    c->pending = false;
    stats_.wait_seconds.push_back(to_seconds(now - c->enqueue_time));
    ++stats_.grants;
    ++in_flight_;
  }
  return batch;
}

std::size_t Scheduler::drain_grants(SimTime now, std::vector<int>* out,
                                    std::vector<std::size_t>* cohorts) {
  std::size_t total = 0;
  for (;;) {
    const std::vector<int> batch = pick_next(now);
    if (batch.empty()) break;
    out->insert(out->end(), batch.begin(), batch.end());
    cohorts->push_back(batch.size());
    total += batch.size();
  }
  if (total > 0) ++stats_.pumps;
  return total;
}

void Scheduler::set_residency(int client, bool resident) {
  Client* c = find(client);
  if (c != nullptr) c->resident = resident;
}

void Scheduler::on_complete(int client, SimTime now) {
  VGPU_ASSERT_MSG(in_flight_ > 0, "completion with nothing in flight");
  --in_flight_;
  do_complete(client, now);
}

std::size_t Scheduler::pending() const {
  std::size_t n = 0;
  for (const auto& [id, client] : clients_) {
    if (client.pending) ++n;
  }
  return n;
}

Scheduler::Client* Scheduler::find(int client) {
  auto it = clients_.find(client);
  return it == clients_.end() ? nullptr : &it->second;
}

double Scheduler::round_cost(const Client& client) const {
  const double bytes =
      client.cost_override
          ? static_cast<double>(client.override_bytes)
          : static_cast<double>(client.request.bytes_in +
                                client.request.bytes_out);
  const double compute = client.cost_override ? client.override_compute
                                              : client.request.compute_cost;
  const double cost = bytes + config_.compute_cost_scale * compute;
  return std::max(cost, 1.0);
}

void Scheduler::set_round_cost(int client, Bytes bytes, double compute_cost) {
  Client* c = find(client);
  if (c == nullptr) return;
  c->cost_override = true;
  c->override_bytes = bytes;
  c->override_compute = compute_cost;
}

void Scheduler::clear_round_cost(int client) {
  Client* c = find(client);
  if (c == nullptr) return;
  c->cost_override = false;
}

void Scheduler::do_admit(Client&, SimTime) {}
void Scheduler::do_release(int, SimTime) {}
void Scheduler::do_failure(int client, SimTime now) {
  do_release(client, now);
}
void Scheduler::do_enqueue(Client&, SimTime) {}
void Scheduler::do_complete(int, SimTime) {}
void Scheduler::on_granted(Client&, SimTime) {}

}  // namespace vgpu::sched
