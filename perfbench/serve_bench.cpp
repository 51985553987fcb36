// Serve workloads: an in-process serve::Server on the costmodels grid
// (24 markets x 3 strategies x 6 tier counts), driven over one
// pipelined Unix-socket connection by an open-loop Poisson generator.
//
//   serve_quotes  reads only: rate low, rate high, a saturation phase
//                 far past capacity, and closed-loop phases (one request
//                 in flight) that give its gated latency and CPU
//   serve_reload  the same reads at low and high while a second
//                 connection sends `reload --updates` every 250 ms:
//                 seeded down/up pairs on Internet2 (Abilene) links
//
// The read mix is 80% price, 15% requote and 5% schedule; market,
// strategy, tier count, (q, d, class) and flow index are drawn from the
// seed. Latency runs from each request's scheduled instant to its
// reply, so a late sender or a queue shows up in it. The generator
// measures the daemon, not itself: its threads run with a 1 ns timer
// slack, the sender sleeps until just before a request is due and spins
// the rest, the receiver polls the socket, and how late each request
// went out is reported on its own (lateness). Daemon CPU per request
// excludes the generator threads' CPU.
//
// Checks: serve_quotes compares every reply with the answer computed
// in-process from the serving snapshot; serve_reload compares a sample
// of replies with the snapshot of the epoch they carry, requires every
// reload to answer ok with 8 markets recalibrated, and after each
// down/up pair requires the served answers to equal the epoch-1 ones.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common.hpp"
#include "driver/grid.hpp"
#include "netdyn/dynamic_network.hpp"
#include "netdyn/update.hpp"
#include "obs/registry.hpp"
#include "pricing/counterfactual.hpp"
#include "pricing/engine.hpp"
#include "serve/client.hpp"
#include "serve/dynamic.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "topology/internet2.hpp"
#include "util/parallel.hpp"
#include "workload/generators.hpp"

namespace perfbench {

namespace {

namespace driver = manytiers::driver;
namespace netdyn = manytiers::netdyn;
namespace obs = manytiers::obs;
namespace pricing = manytiers::pricing;
namespace serve = manytiers::serve;
namespace workload = manytiers::workload;

using serve::QueryKind;
using serve::Request;
using serve::Snapshot;

// Snapshot builds and reload rebuilds fan out over two workers, which
// with the reads' handler thread and the generator keeps the busy
// threads within the four cores the workloads are sized for.
constexpr std::size_t kBuildThreads = 2;
constexpr std::size_t kPool = 4096;  // distinct pre-encoded requests
constexpr double kLowRate = 25000.0;
constexpr double kHighRate = 100000.0;
constexpr double kSaturationRate = 400000.0;
constexpr auto kReloadPeriod = std::chrono::milliseconds(250);
constexpr int kSetups = 7;
constexpr std::size_t kRecalibratedPerReload = 8;  // Internet2 x 2 x 4
constexpr std::size_t kSampleEvery = 16;  // serve_reload reply sample

driver::ExperimentGrid serve_grid(std::uint64_t seed) {
  driver::ExperimentGrid grid = driver::costmodels_grid();
  grid.base.seed = seed;
  return grid;
}

std::size_t cost_classes(driver::CostKind kind) {
  switch (kind) {
    case driver::CostKind::Regional:
      return 3;
    case driver::CostKind::DestType:
      return 2;
    case driver::CostKind::Linear:
    case driver::CostKind::Concave:
      return 1;
  }
  return 1;
}

// Pre-encoded request pool, drawn from the seed.
struct Pool {
  std::vector<Request> requests;
  std::vector<std::string> frames;
};

Pool make_pool(const Snapshot& snap, std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  Pool pool;
  for (std::size_t i = 0; i < kPool; ++i) {
    const auto& market = *snap.markets[rng() % snap.markets.size()];
    Request r;
    r.id = i + 1;
    r.market = market.key;
    r.strategy = std::string(pricing::to_string(
        snap.grid.strategies[rng() % snap.grid.strategies.size()]));
    r.bundles = 1 + rng() % snap.grid.max_bundles;
    const double u = unit(rng);
    if (u < 0.80) {
      r.kind = QueryKind::Price;
      r.q = std::exp(std::log(1.0) + unit(rng) * std::log(1000.0));
      r.d = 5.0 + unit(rng) * 5000.0;
      r.cost_class = rng() % cost_classes(market.cost);
    } else if (u < 0.95) {
      r.kind = QueryKind::Requote;
      r.flow = rng() % market.market.size();
    } else {
      r.kind = QueryKind::Schedule;
    }
    pool.frames.push_back(serve::encode_frame(serve::serialize_request(r)));
    pool.requests.push_back(std::move(r));
  }
  return pool;
}

// The daemon's reply to `request` from `snap`, rebuilt from the public
// calls the server makes (find_market, price_flow / requote_flow /
// schedule, serialize_response). With a recorder, each call is a span.
std::string answer(const Request& request, const Snapshot& snap,
                   SpanRecorder* spans = nullptr) {
  const serve::MarketEntry* market;
  {
    const ScopedSpan span(spans, "serve.find_market");
    market = snap.find_market(request.market);
  }
  const auto strategy = serve::strategy_from_name(request.strategy);
  if (market == nullptr || !strategy) {
    throw std::invalid_argument("pool request names no served cell");
  }
  const std::size_t bundles =
      request.bundles == 0 ? snap.grid.max_bundles : request.bundles;
  const serve::Schedule& schedule =
      market->schedule(*snap.strategy_slot(*strategy), bundles);
  serve::Response response;
  response.id = request.id;
  response.ok = true;
  response.epoch = snap.epoch;
  response.kind = request.kind;
  switch (request.kind) {
    case QueryKind::Price: {
      const ScopedSpan span(spans, "serve.price_flow");
      const serve::Quote quote = serve::price_flow(
          *market, schedule, request.q, request.d, request.cost_class);
      response.tier = quote.tier;
      response.price = quote.price;
      response.rel_cost = quote.rel_cost;
      break;
    }
    case QueryKind::Requote: {
      const ScopedSpan span(spans, "serve.requote_flow");
      const serve::Quote quote =
          serve::requote_flow(*market, schedule, request.flow);
      response.tier = quote.tier;
      response.price = quote.price;
      response.rel_cost = quote.rel_cost;
      response.blended_price = market->market.blended_price();
      break;
    }
    case QueryKind::Schedule:
      response.capture = schedule.capture;
      response.tiers = schedule.tiers;
      break;
    default:
      throw std::invalid_argument("pool request of an admin kind");
  }
  const ScopedSpan span(spans, "serve.serialize");
  return serve::serialize_response(response);
}

// Replace the `"epoch":E` token of a reply, for comparing answers of
// two epochs that must otherwise be byte-identical.
std::string with_epoch(std::string payload, std::uint64_t epoch) {
  const std::string key = "\"epoch\":";
  const std::size_t at = payload.find(key);
  if (at == std::string::npos) return payload;
  const std::size_t begin = at + key.size();
  std::size_t end = begin;
  while (end < payload.size() && payload[end] >= '0' && payload[end] <= '9') {
    ++end;
  }
  return payload.replace(begin, end - begin, std::to_string(epoch));
}

std::uint64_t epoch_of(const std::string& payload) {
  const std::string key = "\"epoch\":";
  const std::size_t at = payload.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(payload.c_str() + at + key.size(), nullptr, 10);
}

bool starts_ok(const std::string& payload) {
  return payload.find("\"ok\":true") != std::string::npos;
}

// Fixed-size log-bucket histogram of microsecond values (0.2% relative
// resolution from 0.01 µs to 100 s), so the generator's memory does not
// grow with the request count and peak RSS stays the daemon's.
class Histogram {
 public:
  void record(double us) {
    const double x = std::max(us, kMin);
    ++counts_[std::min(kBuckets - 1, std::size_t(std::log(x / kMin) / kStep))];
    ++total_;
  }
  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  std::uint64_t count() const { return total_; }
  // The value at rank p * (count - 1), placed within its bucket as if
  // the bucket's samples were spread evenly over its log-width.
  double percentile(double p) const {
    if (total_ == 0) return 0.0;
    const auto rank = std::uint64_t(p * double(total_ - 1));
    std::uint64_t seen = 0;
    std::size_t i = 0;
    for (; i < kBuckets - 1; ++i) {
      if (seen + counts_[i] > rank) break;
      seen += counts_[i];
    }
    const double within = (double(rank - seen) + 0.5) /
                          double(std::max<std::uint32_t>(counts_[i], 1));
    return kMin * std::exp((double(i) + within) * kStep);
  }

 private:
  static constexpr double kMin = 0.01;
  static constexpr double kStep = 0.002;  // log-width of one bucket
  static constexpr std::size_t kBuckets = 11000;  // kMin * e^22 > 100 s
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(kBuckets);
  std::uint64_t total_ = 0;
};

// One open-loop phase on one connection. The measure window is cut into
// quarter-second slices; p50/p90 and the completion rate are medians over
// slices, so a stall of a shared (virtualized) host moves them only if it
// covers most slices. A workload splits each rate into segments spread
// over the run and merges them, so the slices sample the whole run.
// p99 (diagnostic) is over every request.
struct PhaseResult {
  std::size_t sent = 0;       // every request of the phase
  std::uint64_t failed = 0;   // error frames, wrong answers, missing
  std::vector<double> slice_p50_us, slice_p90_us, slice_per_s;
  Histogram latency_us;        // measure-window requests
  Histogram lateness_us;       // how late the sender sent them
  double generator_cpu_s = 0.0;  // the sender's and receiver's own CPU
  // serve_reload: (pool index, reply) for every kSampleEvery-th request.
  std::vector<std::pair<std::size_t, std::string>> samples;

  void merge(PhaseResult&& other) {
    sent += other.sent;
    failed += other.failed;
    const auto append = [](std::vector<double>& to, std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(slice_p50_us, other.slice_p50_us);
    append(slice_p90_us, other.slice_p90_us);
    append(slice_per_s, other.slice_per_s);
    latency_us.merge(other.latency_us);
    lateness_us.merge(other.lateness_us);
    generator_cpu_s += other.generator_cpu_s;
    for (auto& sample : other.samples) samples.push_back(std::move(sample));
  }
};

struct PhaseSpec {
  double rate = 0.0;
  double warm_s = 0.0, measure_s = 0.0, cool_s = 0.0;
  // Busy-wait: the sender spins the last kSpinBefore before each due
  // instant and the receiver polls the socket. Off where the generator
  // must leave the cores to the daemon: the saturation phase (it counts
  // completions only) and serve_reload (the rebuild needs two cores).
  bool poll = true;
};

// Poisson arrival offsets (µs from the phase start). The sender and the
// receiver each run a copy from the same seed, so the receiver knows the
// scheduled instant of the k-th reply without a shared array.
class Arrivals {
 public:
  Arrivals(std::uint64_t seed, double rate_per_s)
      : rng_(seed), gap_(rate_per_s / 1e6) {}
  double next() { return t_ += gap_(rng_); }

 private:
  std::mt19937_64 rng_;
  std::exponential_distribution<double> gap_;
  double t_ = 0.0;
};

// Ends a phase: the sender appends it after its last request, so the
// receiver always has one more reply to wait for and stops at this id.
constexpr std::uint64_t kEndMarkerId = 1u << 30;
constexpr double kSliceS = 0.25;  // measure-window slice length
constexpr std::size_t kMaxBatch = 64;  // frames per write
// The sender sleeps (1 ns timer slack) until this long before a request
// is due and spins the rest: on a 4-vCPU VM a timed sleep still wakes
// 4-6 µs late at p50, by an amount that varies with the host's load.
constexpr auto kSpinBefore = std::chrono::microseconds(30);

// Per-slice latency percentiles and completion rates of a phase.
void summarize_slices(PhaseResult& result,
                      const std::vector<Histogram>& latency,
                      const std::vector<double>& completed, double slice_us) {
  for (std::size_t i = 0; i < latency.size(); ++i) {
    result.slice_per_s.push_back(completed[i] / (slice_us * 1e-6));
    if (latency[i].count() == 0) continue;
    result.slice_p50_us.push_back(latency[i].percentile(0.50));
    result.slice_p90_us.push_back(latency[i].percentile(0.90));
    result.latency_us.merge(latency[i]);
  }
}

PhaseResult run_phase(int fd, const Pool& pool,
                      const std::vector<std::string>* expected,
                      const PhaseSpec& spec, std::uint64_t seed) {
  const std::size_t first = std::mt19937_64(~seed)() % kPool;
  const auto pool_index = [&](std::size_t k) { return (first + k) % kPool; };
  const double warm_us = spec.warm_s * 1e6;
  const double measure_end_us = (spec.warm_s + spec.measure_s) * 1e6;
  const double end_us = measure_end_us + spec.cool_s * 1e6;
  const auto in_window = [&](double t) {
    return t >= warm_us && t < measure_end_us;
  };
  const auto n_slices =
      std::size_t(std::max(1.0, std::round(spec.measure_s / kSliceS)));
  const double slice_us = (measure_end_us - warm_us) / double(n_slices);
  const auto slice_of = [&](double t) {
    return std::min(n_slices - 1, std::size_t((t - warm_us) / slice_us));
  };
  Request marker;
  marker.id = kEndMarkerId;
  marker.kind = QueryKind::Health;
  const std::string marker_frame =
      serve::encode_frame(serve::serialize_request(marker));
  const std::string marker_prefix =
      "{\"id\":" + std::to_string(kEndMarkerId) + ",";

  PhaseResult result;
  std::vector<Histogram> latency(n_slices);
  std::vector<double> completed(n_slices, 0.0);
  std::atomic<std::size_t> sent{0};
  double sender_cpu_s = 0.0, receiver_cpu_s = 0.0;
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto since_t0_us = [&] {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  };

  std::thread sender([&] {
    // The generator measures the daemon, not its own wake-ups: the
    // default 50 µs timer slack would add that much to every sleep.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const double cpu0 = thread_cpu_s();
    Arrivals arrivals(seed, spec.rate);
    std::string out;
    std::size_t i = 0;
    double due = arrivals.next();
    try {
      // Past capacity the sender falls behind; it stops at the phase's
      // end either way, so a saturated phase lasts as long as planned.
      while (due < end_us) {
        const auto target =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::micro>(due));
        if (!spec.poll) {
          std::this_thread::sleep_until(target);
        } else {
          if (target - Clock::now() > kSpinBefore) {
            std::this_thread::sleep_until(target - kSpinBefore);
          }
          while (Clock::now() < target) {
          }
        }
        const double now_us = since_t0_us();
        if (now_us >= end_us) break;
        out.clear();
        std::size_t batch = 0;
        do {
          out += pool.frames[pool_index(i)];
          if (in_window(due)) result.lateness_us.record(now_us - due);
          ++i;
          due = arrivals.next();
        } while (due <= now_us && due < end_us && ++batch < kMaxBatch);
        serve::write_all(fd, out);
        sent.store(i, std::memory_order_relaxed);
      }
      serve::write_all(fd, marker_frame);
    } catch (const std::exception& e) {
      std::cerr << "sender: " << e.what() << "\n";
      ::shutdown(fd, SHUT_RD);  // unblock the receiver
    }
    result.sent = i;
    sender_cpu_s = thread_cpu_s() - cpu0;
  });
  std::thread receiver([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const double cpu0 = thread_cpu_s();
    Arrivals arrivals(seed, spec.rate);
    serve::FrameReader reader(fd);
    for (std::size_t k = 0;; ++k) {
      std::string payload;
      try {
        // Poll instead of blocking, so a reply is seen when it lands
        // rather than when the host wakes this thread's vCPU.
        char byte;
        while (spec.poll && !reader.buffered_frame() &&
               ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) < 0 &&
               errno == EAGAIN) {
        }
        if (reader.next(payload) != serve::FrameReader::Status::Frame) {
          throw std::runtime_error("connection closed");
        }
      } catch (const std::exception& e) {
        std::cerr << "receiver: " << e.what() << " after " << k
                  << " replies\n";
        result.failed += sent.load(std::memory_order_relaxed) - k;
        break;
      }
      const double done = since_t0_us();
      if (payload.rfind(marker_prefix, 0) == 0) break;
      const double due = arrivals.next();
      if (in_window(due)) latency[slice_of(due)].record(done - due);
      if (in_window(done)) completed[slice_of(done)] += 1.0;
      if (expected != nullptr) {
        if (payload != (*expected)[pool_index(k)]) ++result.failed;
      } else if (!starts_ok(payload)) {
        ++result.failed;
      } else if (k % kSampleEvery == 0) {
        result.samples.emplace_back(pool_index(k), std::move(payload));
      }
    }
    receiver_cpu_s = thread_cpu_s() - cpu0;
  });
  sender.join();
  receiver.join();
  result.generator_cpu_s = sender_cpu_s + receiver_cpu_s;

  summarize_slices(result, latency, completed, slice_us);
  return result;
}

// Puts the calling thread and the daemon thread `handler` on one CPU,
// the last this process may use, and restores both masks when it ends.
class SharedCpu {
 public:
  explicit SharedCpu(pid_t handler) : handler_(handler) {
    if (sched_getaffinity(0, sizeof self_, &self_) != 0 ||
        sched_getaffinity(handler_, sizeof theirs_, &theirs_) != 0) {
      throw std::system_error(errno, std::generic_category(),
                              "sched_getaffinity");
    }
    int cpu = 0;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &self_)) cpu = c;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(handler_, sizeof one, &one) != 0 ||
        sched_setaffinity(0, sizeof one, &one) != 0) {
      const int error = errno;
      restore();
      throw std::system_error(error, std::generic_category(),
                              "sched_setaffinity");
    }
  }
  ~SharedCpu() { restore(); }
  SharedCpu(const SharedCpu&) = delete;
  SharedCpu& operator=(const SharedCpu&) = delete;

 private:
  void restore() {
    sched_setaffinity(handler_, sizeof theirs_, &theirs_);
    sched_setaffinity(0, sizeof self_, &self_);
  }
  pid_t handler_;
  cpu_set_t self_, theirs_;
};

// Thread ids of this process.
std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.push_back(pid_t(std::stol(entry.path().filename().string())));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// The daemon thread that serves `client`, which connected after
// `before` was taken: the one thread a health round trip leaves new.
pid_t connection_thread(serve::Client& client,
                        const std::vector<pid_t>& before) {
  Request health;
  health.kind = QueryKind::Health;
  if (!client.call(health).ok) throw std::runtime_error("health failed");
  std::vector<pid_t> added;
  const std::vector<pid_t> after = thread_ids();
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(added));
  if (added.size() != 1) {
    throw std::runtime_error("cannot tell the daemon's connection thread");
  }
  return added.front();
}

// One closed-loop phase: a single client with one request in flight,
// as a quoting client sees the daemon; latency is the round trip. The
// client and the daemon thread `handler` share one CPU, so a round
// trip is two same-CPU hand-offs, not two wake-ups of another vCPU
// whose cost depends on where the host runs it. A stall of the host
// delays only the request in flight, where an open-loop queue delays
// every request due during it; and with one frame per read and write,
// the daemon's CPU per request does not depend on how far it fell
// behind.
PhaseResult run_closed_loop(int fd, pid_t handler, const Pool& pool,
                            const std::vector<std::string>& expected,
                            const PhaseSpec& spec, std::uint64_t seed) {
  const std::size_t first = std::mt19937_64(~seed)() % kPool;
  const double warm_us = spec.warm_s * 1e6;
  const double measure_end_us = (spec.warm_s + spec.measure_s) * 1e6;
  const auto n_slices =
      std::size_t(std::max(1.0, std::round(spec.measure_s / kSliceS)));
  const double slice_us = (measure_end_us - warm_us) / double(n_slices);
  std::vector<Histogram> latency(n_slices);
  std::vector<double> completed(n_slices, 0.0);

  const SharedCpu pinned(handler);
  PhaseResult result;
  const double cpu0 = thread_cpu_s();
  const auto t0 = Clock::now();
  const auto since_t0_us = [&] {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  };
  serve::FrameReader reader(fd);
  std::string payload;
  for (double sent_us = 0.0; sent_us < measure_end_us;
       sent_us = since_t0_us()) {
    const std::size_t index = (first + result.sent) % kPool;
    serve::write_all(fd, pool.frames[index]);
    ++result.sent;
    if (reader.next(payload) != serve::FrameReader::Status::Frame) {
      throw std::runtime_error("closed-loop phase: connection closed");
    }
    const double done_us = since_t0_us();
    if (payload != expected[index]) ++result.failed;
    if (sent_us >= warm_us) {
      const auto slice = std::min(
          n_slices - 1, std::size_t((sent_us - warm_us) / slice_us));
      latency[slice].record(done_us - sent_us);
      completed[slice] += 1.0;
    }
  }
  result.generator_cpu_s = thread_cpu_s() - cpu0;
  summarize_slices(result, latency, completed, slice_us);
  return result;
}

// Seeded down/up pairs on Internet2 links whose failure keeps the
// backbone connected and changes the distance of at least one flow the
// served Internet2 dataset rides, so every reload rebuilds the 8
// Internet2 markets and each `up` restores the base state exactly.
struct LinkToggle {
  std::string down;  // "down,A,B"
  std::string up;    // "up,A,B,LEN,CAP" with the original length
};

std::vector<LinkToggle> reload_links(const driver::ExperimentGrid& grid) {
  const manytiers::topology::Network base =
      manytiers::topology::internet2_network();
  netdyn::DynamicNetwork net(base);
  workload::TopologyBinding binding;
  workload::generate_internet2(
      {.seed = grid.base.seed, .n_flows = grid.base.n_flows}, base,
      net.distances(), &binding);
  std::vector<LinkToggle> out;
  char len[64];
  for (const auto& link : base.links()) {
    const std::string a = base.pop(link.a).name;
    const std::string b = base.pop(link.b).name;
    std::snprintf(len, sizeof len, "%.17g,%.17g", link.length_miles,
                  link.capacity_gbps);
    LinkToggle toggle{"down," + a + "," + b,
                      "up," + a + "," + b + "," + len};
    const auto delta = net.apply(netdyn::parse_updates(toggle.down));
    bool connected = true;
    for (std::size_t s = 0; s < net.pop_count(); ++s) {
      for (std::size_t d = 0; d < net.pop_count(); ++d) {
        connected = connected && std::isfinite(net.distances()(s, d));
      }
    }
    bool touches_flow = false;
    for (const auto& pair : binding.pairs) {
      touches_flow =
          touches_flow || std::binary_search(delta.changed.begin(),
                                             delta.changed.end(), pair);
    }
    net.apply(netdyn::parse_updates(toggle.up));
    if (connected && touches_flow) out.push_back(std::move(toggle));
  }
  if (out.empty()) throw std::runtime_error("no Internet2 link to toggle");
  return out;
}

// Every market of `a` answers exactly as the same market of `b`.
bool same_answers(const Snapshot& a, const Snapshot& b) {
  if (a.markets.size() != b.markets.size()) return false;
  for (std::size_t m = 0; m < a.markets.size(); ++m) {
    const auto& x = *a.markets[m];
    const auto& y = *b.markets[m];
    if (&x == &y) continue;  // shared, clean market
    if (x.key != y.key || x.market.costs() != y.market.costs() ||
        x.market.valuations() != y.market.valuations() ||
        x.schedules.size() != y.schedules.size()) {
      return false;
    }
    for (std::size_t s = 0; s < x.schedules.size(); ++s) {
      for (std::size_t k = 0; k < x.schedules[s].size(); ++k) {
        const auto& sx = x.schedules[s][k];
        const auto& sy = y.schedules[s][k];
        serve::Response rx, ry;
        rx.ok = ry.ok = true;
        rx.kind = ry.kind = QueryKind::Schedule;
        rx.capture = sx.capture;
        rx.tiers = sx.tiers;
        ry.capture = sy.capture;
        ry.tiers = sy.tiers;
        if (serve::serialize_response(rx) != serve::serialize_response(ry) ||
            sx.tier_of_flow != sy.tier_of_flow) {
          return false;
        }
      }
    }
  }
  return true;
}

// The admin connection of serve_reload: one reload every kReloadPeriod,
// alternating down and up of the seeded links. The network only ever
// holds the base state or the base minus one link, so one snapshot per
// state is kept (state 0 = base, i + 1 = link i down) and each epoch
// maps to its state; a state reached again must answer exactly as the
// first time.
class ReloadDriver {
 public:
  ReloadDriver(const std::string& socket, serve::Server& server,
               std::vector<LinkToggle> links, const Pool& pool,
               std::uint64_t seed)
      : client_(serve::Client::connect_unix(socket)),
        server_(server),
        links_(std::move(links)),
        pool_(pool),
        rng_(seed ^ 0x51ed27a3u),
        state_snapshot_(links_.size() + 1) {
    state_snapshot_[0] = server_.snapshot();
    state_of_epoch_[state_snapshot_[0]->epoch] = 0;
    for (std::size_t i = 0; i < kPool; ++i) {
      if (pool_.requests[i].market.rfind("Internet2/", 0) == 0) {
        probes_.push_back(i);
      }
    }
  }

  // One synchronous down/up pair (the warm-up before measuring).
  void pair() { toggle(rng_() % links_.size(), nullptr); }

  void start() {
    thread_ = std::thread([this] {
      try {
        auto next = Clock::now();
        bool running = true;
        while (running) {
          toggle(rng_() % links_.size(), &next);
          const std::lock_guard<std::mutex> lock(mutex_);
          running = !stop_;
        }
      } catch (const std::exception& e) {
        std::cerr << "reload driver: " << e.what() << "\n";
        ++failed_;
      }
    });
  }

  void set_measuring(bool on) { measuring_ = on; }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    if (thread_.joinable()) thread_.join();
  }

  ~ReloadDriver() { stop(); }
  ReloadDriver(const ReloadDriver&) = delete;
  ReloadDriver& operator=(const ReloadDriver&) = delete;

  // Valid after stop().
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  // The reply `request` must get at `epoch`; empty for an unknown epoch.
  std::string expected(const Request& request, std::uint64_t epoch) const {
    const auto it = state_of_epoch_.find(epoch);
    if (it == state_of_epoch_.end()) return {};
    return with_epoch(answer(request, *state_snapshot_[it->second]), epoch);
  }

 private:
  // Link `link` down, then up; paced by `next` when given.
  void toggle(std::size_t link, Clock::time_point* next) {
    for (const std::size_t state : {link + 1, std::size_t{0}}) {
      if (next != nullptr) {
        *next += kReloadPeriod;
        std::this_thread::sleep_until(*next);
      }
      reload(state, next != nullptr && measuring_.load());
    }
    check_base_restored();
  }

  void reload(std::size_t state, bool measured) {
    Request request;
    request.id = ++attempted_;
    request.kind = QueryKind::Reload;
    request.updates =
        state == 0 ? links_[last_link_].up : links_[state - 1].down;
    if (state != 0) last_link_ = state - 1;
    const auto t0 = Clock::now();
    serve::Response response;
    try {
      response = client_.call(request);
    } catch (const std::exception& e) {
      std::cerr << "reload: " << e.what() << "\n";
      ++failed_;
      return;
    }
    if (measured) latency_ms_.push_back(seconds_since(t0) * 1e3);
    if (!response.ok || response.recalibrated != kRecalibratedPerReload) {
      std::cerr << "reload \"" << request.updates << "\" answered ok="
                << response.ok << " recalibrated=" << response.recalibrated
                << " " << response.error << "\n";
      ++failed_;
      return;
    }
    // Only this connection reloads, so the served snapshot is still the
    // one this reply announced.
    const auto snap = server_.snapshot();
    if (snap->epoch != response.epoch) {
      ++failed_;
      return;
    }
    state_of_epoch_[snap->epoch] = state;
    auto& known = state_snapshot_[state];
    if (known == nullptr) {
      known = snap;
    } else if (!same_answers(*snap, *known)) {
      std::cerr << "epoch " << snap->epoch
                << " answers differently from an earlier epoch of the same "
                   "network state\n";
      ++failed_;
    }
  }

  // After an up: the live daemon answers a probe exactly as at epoch 1
  // (epoch field aside). The in-process comparison of every market ran
  // in reload() against state 0.
  void check_base_restored() {
    if (probes_.empty()) return;
    const Request& probe = pool_.requests[probes_[rng_() % probes_.size()]];
    ++attempted_;
    try {
      const std::string reply =
          client_.call_raw(serve::serialize_request(probe));
      if (reply != with_epoch(answer(probe, *state_snapshot_[0]),
                              epoch_of(reply))) {
        std::cerr << "probe after pair differs from its epoch-1 answer\n";
        ++failed_;
      }
    } catch (const std::exception& e) {
      std::cerr << "probe: " << e.what() << "\n";
      ++failed_;
    }
  }

  serve::Client client_;
  serve::Server& server_;
  std::vector<LinkToggle> links_;
  const Pool& pool_;
  std::mt19937_64 rng_;  // reload thread only (after construction)
  std::size_t last_link_ = 0;
  std::vector<std::shared_ptr<const Snapshot>> state_snapshot_;
  std::map<std::uint64_t, std::size_t> state_of_epoch_;
  std::vector<std::size_t> probes_;  // pool entries on Internet2 markets
  std::vector<double> latency_ms_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::atomic<bool> measuring_{false};
  std::mutex mutex_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;  // last: started after every member it uses
};

// Server::start() until the first health reply: the daemon's set-up,
// snapshot build included.
struct Daemon {
  std::unique_ptr<serve::Server> server;
  double setup_s = 0.0;
};

Daemon start_daemon(const driver::ExperimentGrid& grid,
                    const std::string& socket) {
  serve::ServerOptions options;
  options.unix_path = socket;
  options.threads = kBuildThreads;
  Daemon daemon;
  daemon.server = std::make_unique<serve::Server>(grid, options);
  const auto t0 = Clock::now();
  daemon.server->start();
  serve::Client client = serve::Client::connect_unix(socket);
  Request health;
  health.kind = QueryKind::Health;
  const serve::Response reply = client.call(health);
  daemon.setup_s = seconds_since(t0);
  if (!reply.ok || reply.state != "ready") {
    throw std::runtime_error("daemon not ready after start");
  }
  return daemon;
}

std::atomic<std::uint64_t> g_sink{0};
constexpr double kHandlerLoopMs = 150.0;

// Mean nanoseconds per call of `fn` over `items`, repeated until at
// least `min_ms` of work was timed.
template <typename Items, typename Fn>
double mean_ns(const Items& items, Fn&& fn, double min_ms = 40.0) {
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  do {
    for (const auto& item : items) fn(item);
    calls += items.size();
  } while (seconds_since(t0) * 1e3 < min_ms);
  return seconds_since(t0) * 1e9 / double(calls);
}

// Per-layer numbers of the request path, from calls into the public
// serve functions over the request pool.
void request_layers(const Snapshot& snap, const Pool& pool, JsonObject& out,
                    double& handler_us, double& overhead_ratio) {
  std::vector<std::string> payloads;
  for (const auto& r : pool.requests) {
    payloads.push_back(serve::serialize_request(r));
  }
  std::uint64_t sink = 0;
  out.num("serve.parse_request_ns",
          mean_ns(payloads, [&](const std::string& p) {
            sink += serve::parse_request(p).id;
          }));
  out.num("serve.find_market_ns",
          mean_ns(pool.requests, [&](const Request& r) {
            sink += snap.find_market(r.market) != nullptr;
          }));
  std::map<QueryKind, std::vector<const Request*>> by_kind;
  for (const auto& r : pool.requests) by_kind[r.kind].push_back(&r);
  const auto schedule_of = [&](const Request& r) -> const serve::Schedule& {
    const auto* market = snap.find_market(r.market);
    return market->schedule(
        *snap.strategy_slot(*serve::strategy_from_name(r.strategy)),
        r.bundles);
  };
  out.num("serve.price_flow_ns",
          mean_ns(by_kind[QueryKind::Price], [&](const Request* r) {
            sink += serve::price_flow(*snap.find_market(r->market),
                                      schedule_of(*r), r->q, r->d,
                                      r->cost_class)
                        .tier;
          }));
  out.num("serve.requote_flow_ns",
          mean_ns(by_kind[QueryKind::Requote], [&](const Request* r) {
            sink += serve::requote_flow(*snap.find_market(r->market),
                                        schedule_of(*r), r->flow)
                        .tier;
          }));
  for (const auto& [kind, name] :
       {std::pair{QueryKind::Price, "price"},
        std::pair{QueryKind::Requote, "requote"},
        std::pair{QueryKind::Schedule, "schedule"}}) {
    std::vector<serve::Response> responses;
    double bytes = 0.0;
    for (const Request* r : by_kind[kind]) {
      const std::string reply = answer(*r, snap);
      bytes += double(reply.size());
      responses.push_back(serve::parse_response(reply));
    }
    out.num(std::string("serve.serialize_ns.") + name,
            mean_ns(responses, [&](const serve::Response& r) {
              sink += serve::serialize_response(r).size();
            }));
    out.num(std::string("serve.response_bytes.") + name,
            bytes / double(std::max<std::size_t>(1, responses.size())));
  }
  // The whole in-process handler per request of the mix, without and
  // with a span around each layer call.
  const double plain_ns = mean_ns(
      payloads,
      [&](const std::string& p) {
        sink += answer(serve::parse_request(p), snap).size();
      },
      kHandlerLoopMs);
  SpanRecorder spans;
  const double traced_ns = mean_ns(
      payloads,
      [&](const std::string& p) {
        Request r;
        {
          const ScopedSpan span(&spans, "serve.parse_request");
          r = serve::parse_request(p);
        }
        sink += answer(r, snap, &spans).size();
      },
      kHandlerLoopMs);
  handler_us = plain_ns * 1e-3;
  overhead_ratio = traced_ns / plain_ns - 1.0;
  g_sink += sink;  // keeps the timed calls observable
}

// Snapshot build rebuilt from the public calls with spans (generate,
// calibrate, bundling_series, price_bundles), plus build_snapshot
// itself, for the per-layer numbers behind set-up and reload.
void snapshot_layers(const driver::ExperimentGrid& grid, const Snapshot& served,
                     JsonObject& out, std::uint64_t& failed) {
  std::vector<double> build_ms;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    serve::build_snapshot(grid, {.threads = kBuildThreads});
    build_ms.push_back(seconds_since(t0) * 1e3);
  }
  out.num("serve.build_snapshot_ms", median(build_ms));

  obs::set_enabled(true);
  obs::Registry::instance().reset();
  SpanRecorder spans;
  const ScopedSpan root(&spans, "serve.build_snapshot");
  std::vector<workload::FlowSet> flows;
  for (const auto kind : grid.datasets) {
    const ScopedSpan span(&spans, "workload.generate", root.id());
    flows.push_back(workload::generate_dataset(
        kind, {.seed = grid.base.seed, .n_flows = grid.base.n_flows}));
  }
  const std::size_t n_cost = grid.cost_kinds.size();
  const std::size_t n_dem = grid.demand_kinds.size();
  const std::size_t n_markets = grid.datasets.size() * n_dem * n_cost;
  std::vector<std::vector<double>> captures(n_markets);
  manytiers::util::parallel_for(
      n_markets,
      [&](std::size_t m) {
        const std::size_t cost_i = m % n_cost;
        const std::size_t dem_i = (m / n_cost) % n_dem;
        const std::size_t ds_i = m / n_cost / n_dem;
        pricing::DemandSpec spec;
        spec.kind = grid.demand_kinds[dem_i];
        spec.alpha = grid.base.alpha;
        spec.no_purchase_share = grid.base.s0;
        const auto cost_model =
            driver::make_cost_model(grid.cost_kinds[cost_i], grid.base.theta);
        std::optional<pricing::Market> market;
        {
          const ScopedSpan span(&spans, "pricing.calibrate", root.id());
          market.emplace(pricing::Market::calibrate(
              flows[ds_i], spec, *cost_model, grid.base.blended_price));
        }
        for (const auto strategy : grid.strategies) {
          const auto series = traced_capture_series(
              *market, strategy, grid.max_bundles, spans, root.id());
          captures[m].insert(captures[m].end(), series.begin(), series.end());
        }
      },
      kBuildThreads);
  // The rebuild must reproduce the daemon's schedules bit for bit.
  for (std::size_t m = 0; m < n_markets; ++m) {
    std::size_t k = 0;
    for (const auto& series : served.markets[m]->schedules) {
      for (const auto& schedule : series) {
        if (k >= captures[m].size() || captures[m][k++] != schedule.capture) {
          ++failed;
          std::cerr << "snapshot rebuild differs in market " << m << "\n";
        }
      }
    }
  }
  const auto self = spans.self_ms_by_name();
  out.num("workload.generate_ms", self_ms(self, "workload.generate"));
  out.num("pricing.calibrate_ms", self_ms(self, "pricing.calibrate"));
  out.integer("pricing.markets", n_markets);
  out.num("bundling.series_ms.optimal",
          self_ms(self, "bundling.series.optimal"));
  out.num("bundling.series_ms.heuristic",
          self_ms(self, "bundling.series.heuristic"));
  out.num("pricing.price_ms", self_ms(self, "pricing.price"));
  obs::Registry& r = obs::Registry::instance();
  const std::uint64_t fills = r.counter("bundling.dp_fills").value();
  const std::uint64_t fast = r.counter("bundling.dp_fastpath").value();
  const std::uint64_t slow = r.counter("bundling.dp_fallbacks").value();
  out.integer("bundling.dp_fills", fills);
  out.integer("bundling.dp_cells", r.counter("bundling.dp_cells").value());
  out.num("bundling.dp_fastpath_ratio",
          fast + slow > 0 ? double(fast) / double(fast + slow) : 0.0);
  obs::set_enabled(false);
}

// The reload path's layers, driven from outside the daemon: the
// DynamicNetwork apply of each update and the DynamicState derive of the
// next snapshot, over the first four seeded links (a fixed sequence, so
// the counts repeat exactly for a seed).
void reload_layers(const driver::ExperimentGrid& grid,
                   const std::vector<LinkToggle>& links, std::uint64_t seed,
                   JsonObject& out, std::uint64_t& failed) {
  std::mt19937_64 rng(seed ^ 0x51ed27a3u);
  std::vector<const LinkToggle*> sequence;
  for (int i = 0; i < 4; ++i) sequence.push_back(&links[rng() % links.size()]);

  obs::set_enabled(true);
  obs::Counter& changed = obs::Registry::instance().counter(
      "netdyn.changed_pairs");
  // Network layer alone: two passes must count identical changes.
  std::vector<double> apply_ms;
  std::uint64_t pass_changed[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    netdyn::DynamicNetwork net(manytiers::topology::internet2_network());
    changed.reset();
    for (const LinkToggle* link : sequence) {
      for (const std::string* updates : {&link->down, &link->up}) {
        const auto batch = netdyn::parse_updates(*updates);
        const auto t0 = Clock::now();
        net.apply(batch);
        apply_ms.push_back(seconds_since(t0) * 1e3);
      }
    }
    pass_changed[pass] = changed.value();
  }
  if (pass_changed[0] != pass_changed[1]) {
    ++failed;
    std::cerr << "netdyn.changed_pairs differs between passes\n";
  }
  out.num("netdyn.apply_ms", median(apply_ms));
  out.num("netdyn.changed_pairs",
          double(pass_changed[0]) / double(2 * sequence.size()));

  // The serve-side derive: re-cost + rebuild of the dirty markets.
  serve::DynamicState state(grid);
  std::shared_ptr<const Snapshot> snap =
      serve::build_snapshot(grid, {.threads = kBuildThreads});
  std::vector<double> derive_ms;
  std::size_t recalibrated = 0;
  std::uint64_t epoch = snap->epoch;
  for (const LinkToggle* link : sequence) {
    for (const std::string* updates : {&link->down, &link->up}) {
      const auto batch = netdyn::parse_updates(*updates);
      const auto t0 = Clock::now();
      auto derived = state.apply(*snap, batch, ++epoch, kBuildThreads);
      derive_ms.push_back(seconds_since(t0) * 1e3);
      recalibrated += derived.recalibrated;
      snap = std::move(derived.snapshot);
    }
  }
  out.num("serve.dynamic_apply_ms", median(derive_ms));
  out.num("serve.markets_recalibrated",
          double(recalibrated) / double(derive_ms.size()));
  obs::set_enabled(false);
}

std::string socket_path() {
  // Relative to the working directory (the checkout): short enough for
  // sun_path wherever the checkout lives.
  return "perfbench-" + std::to_string(::getpid()) + ".sock";
}

}  // namespace

int run_serve_workload(const RunConfig& config) {
  const bool reloads = config.workload == "serve_reload";
  const driver::ExperimentGrid grid = serve_grid(config.seed);
  const std::string socket = socket_path();
  const double T = config.seconds;
  bool first_segment = true;

  // Set-up, several times; the last daemon serves the load.
  std::vector<double> setup_s;
  Daemon daemon;
  warm_up_cpus(kBuildThreads + 1, 1.0);
  for (int i = 0; i < (config.trace ? 1 : kSetups); ++i) {
    if (daemon.server) daemon.server->stop();
    daemon = start_daemon(grid, socket);
    setup_s.push_back(daemon.setup_s);
  }
  serve::Server& server = *daemon.server;
  const std::shared_ptr<const Snapshot> base = server.snapshot();
  const Pool pool = make_pool(*base, config.seed);
  std::vector<std::string> expected;
  for (const auto& r : pool.requests) expected.push_back(answer(r, *base));

  std::uint64_t attempted = setup_s.size(), failed = 0;
  std::unique_ptr<ReloadDriver> reloader;
  std::vector<LinkToggle> links;
  if (reloads) {
    links = reload_links(grid);
    reloader = std::make_unique<ReloadDriver>(socket, server, links, pool,
                                              config.seed);
    reloader->pair();  // first updates reload builds the dynamic state
    reloader->start();
  }

  const std::vector<pid_t> threads_before = thread_ids();
  serve::Client client = serve::Client::connect_unix(socket);
  const pid_t handler =
      reloads || config.trace ? 0 : connection_thread(client, threads_before);
  // Segment lengths: a share of the session. The first segment warms up
  // for 1.5 s (the host brings idle vCPUs back, see warm_up_cpus), later
  // ones for 0.5 s; a short tail keeps load on while the last measured
  // replies drain. Each rate runs in segments spread over the session,
  // so a few seconds of host noise cannot own all of its slices.
  const auto phase = [&](double rate, double share) {
    const double warm = std::min(first_segment ? 1.5 : 0.5, 0.3 * share * T);
    first_segment = false;
    return PhaseSpec{rate, warm, 0.95 * share * T - warm, 0.05 * share * T};
  };
  std::vector<std::pair<std::string, PhaseSpec>> phases;
  if (config.trace) {
    phases = {{"low", phase(kLowRate, 0.3)}, {"high", phase(kHighRate, 0.2)}};
  } else if (reloads) {
    phases = {{"low", phase(kLowRate, 0.25)},
              {"high", phase(kHighRate, 0.22)},
              {"low", phase(kLowRate, 0.25)},
              {"high", phase(kHighRate, 0.22)}};
  } else {
    phases = {{"low", phase(kLowRate, 0.15)},
              {"rtt", phase(0.0, 0.12)},
              {"high", phase(kHighRate, 0.1)},
              {"rtt", phase(0.0, 0.12)},
              {"sat", phase(kSaturationRate, 0.12)},
              {"rtt", phase(0.0, 0.12)},
              {"low", phase(kLowRate, 0.15)},
              {"high", phase(kHighRate, 0.1)}};
    phases[4].second.poll = false;
  }
  if (reloads) {
    for (auto& p : phases) p.second.poll = false;
  }
  std::map<std::string, PhaseResult> results;
  warm_up_cpus(3, 1.0);  // sender, receiver and the reads' handler
  double cpu_s = 0.0;
  std::size_t cpu_requests = 0;
  std::uint64_t phase_seed = config.seed;
  if (reloader) reloader->set_measuring(true);
  for (const auto& [name, spec] : phases) {
    const double cpu0 = process_cpu_s();
    const std::uint64_t seed = ++phase_seed * 0x2545f4914f6cdd1dull;
    PhaseResult r =
        name == "rtt"
            ? run_closed_loop(client.fd(), handler, pool, expected, spec,
                              seed)
            : run_phase(client.fd(), pool, reloads ? nullptr : &expected,
                        spec, seed);
    // Daemon CPU per request: serve_quotes over its closed-loop phases,
    // serve_reload (reads beside rebuilds) over all of its phases.
    if (reloads || name == "rtt") {
      cpu_s += process_cpu_s() - cpu0 - r.generator_cpu_s;
      cpu_requests += r.sent;
    }
    attempted += r.sent;
    failed += r.failed;
    results[name].merge(std::move(r));
  }
  if (reloader) {
    reloader->set_measuring(false);
    reloader->stop();
    attempted += reloader->attempted();
    failed += reloader->failed();
    cpu_requests += reloader->latency_ms().size();
    // Sampled replies: byte-equal to the snapshot of their epoch.
    for (const auto& [name, r] : results) {
      for (const auto& [index, reply] : r.samples) {
        const std::string want =
            reloader->expected(pool.requests[index], epoch_of(reply));
        if (want.empty() || reply != want) ++failed;
      }
    }
  }

  JsonObject out;
  out.nums("setup_s", setup_s);
  for (const auto& [name, r] : results) {
    out.num(name + ".p50_us", median(r.slice_p50_us));
    out.num(name + ".p90_us", median(r.slice_p90_us));
    out.num(name + ".p99_us", r.latency_us.percentile(0.99));
    out.integer(name + ".samples", r.latency_us.count());
    out.integer(name + ".slices", r.slice_p50_us.size());
    out.num(name + ".achieved_per_s", median(r.slice_per_s));
    out.num(name + ".lateness_p50_us", r.lateness_us.percentile(0.50));
    out.num(name + ".lateness_p99_us", r.lateness_us.percentile(0.99));
  }
  if (cpu_requests > 0) {  // the traced run has no closed-loop phase
    out.num("cpu_ms_per_request", cpu_s * 1e3 / double(cpu_requests));
  }
  if (reloader) out.nums("reload_ms", reloader->latency_ms());

  if (config.trace) {
    const PhaseResult& low = results.at("low");
    double handler_us = 0.0, overhead = 0.0;
    request_layers(*base, pool, out, handler_us, overhead);
    const double lateness_p50 = low.lateness_us.percentile(0.50);
    out.num("loadgen.lateness_us.p50", lateness_p50);
    out.num("loadgen.lateness_us.p99", low.lateness_us.percentile(0.99));
    out.num("serve.transport_us",
            median(low.slice_p50_us) - lateness_p50 - handler_us);
    out.num("obs.trace_overhead_ratio", overhead);
    snapshot_layers(grid, *base, out, failed);
    if (reloads) reload_layers(grid, links, config.seed, out, failed);
  }
  client.close();
  reloader.reset();
  server.stop();
  out.num("peak_rss_mb", peak_rss_mb());
  out.integer("attempted", attempted);
  out.integer("failed", failed);
  std::cout << out.text() << std::endl;
  return 0;
}

}  // namespace perfbench
