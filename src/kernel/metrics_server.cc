#include "src/kernel/metrics_server.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/runtime/metapool_runtime.h"
#include "src/support/strings.h"
#include "src/trace/drainer.h"
#include "src/trace/metrics.h"
#include "src/trace/profiler.h"
#include "src/trace/trace.h"

namespace sva::kernel {
namespace {

// User-space scratch window the responder stages request/response bytes
// through, placed in the upper half of the initial 64 KB per-task user
// window (the demand-paged region brk starts with) so it never collides
// with the benchmarks' conventional offset-0..16K buffers.
constexpr uint64_t kScratchOffset = 0x8000;
constexpr uint64_t kSendChunk = 8192;

bool IsErrno(uint64_t value) {
  return static_cast<int64_t>(value) < 0;
}

void Add(std::vector<trace::CounterSample>& out, const char* name,
         uint64_t value, std::string label = "") {
  out.push_back(trace::CounterSample{name, std::move(label), value});
}

}  // namespace

Status MetricsServer::Start() {
  if (started_) {
    return FailedPrecondition("metrics server already started");
  }
  SVA_ASSIGN_OR_RETURN(
      uint64_t fd,
      kernel_.Syscall(Sys::kSocket,
                      static_cast<uint64_t>(SocketDomain::kListener)));
  if (IsErrno(fd)) {
    return Internal("metrics server: socket allocation failed");
  }
  SVA_ASSIGN_OR_RETURN(uint64_t bound,
                       kernel_.Syscall(Sys::kBind, fd, port_));
  if (IsErrno(bound)) {
    return Internal(StrCat("metrics server: bind to port ", port_,
                           " failed"));
  }
  listener_ = fd;
  started_ = true;
  return OkStatus();
}

std::string MetricsServer::RenderText() const {
  std::vector<trace::CounterSample> counters;
  counters.reserve(64);

  const KernelStats ks = kernel_.stats();
  Add(counters, "sva_kernel_syscalls_total", ks.syscalls);
  Add(counters, "sva_kernel_context_switches_total", ks.context_switches);
  Add(counters, "sva_kernel_forks_total", ks.forks);
  Add(counters, "sva_kernel_execs_total", ks.execs);
  Add(counters, "sva_kernel_signals_delivered_total", ks.signals_delivered);
  Add(counters, "sva_kernel_user_bytes_copied_total", ks.bytes_copied_user);

  const runtime::CheckStats& cs = kernel_.pools().stats();
  Add(counters, "sva_pchk_bounds_checks_total", cs.bounds_performed);
  Add(counters, "sva_pchk_bounds_failed_total", cs.bounds_failed);
  Add(counters, "sva_pchk_loadstore_checks_total", cs.loadstore_performed);
  Add(counters, "sva_pchk_loadstore_failed_total", cs.loadstore_failed);
  Add(counters, "sva_pchk_indirect_checks_total", cs.indirect_performed);
  Add(counters, "sva_pchk_indirect_failed_total", cs.indirect_failed);
  Add(counters, "sva_pchk_frees_checked_total", cs.frees_checked);
  Add(counters, "sva_pchk_frees_failed_total", cs.frees_failed);
  Add(counters, "sva_pchk_reduced_checks_total", cs.reduced_checks);
  Add(counters, "sva_pchk_registrations_total", cs.registrations);
  Add(counters, "sva_pchk_drops_total", cs.drops);
  Add(counters, "sva_pchk_cache_hits_total", cs.cache_hits);
  Add(counters, "sva_pchk_cache_misses_total", cs.cache_misses);
  Add(counters, "sva_pchk_splay_comparisons_total", cs.splay_comparisons);
  Add(counters, "sva_pchk_splay_rotations_total", cs.splay_rotations);

  // Per-pool fast-path counters, grouped by metric name so each gets a
  // single # TYPE header. Reading the pool map is a control-plane
  // operation, same quiescence rule as MetaPoolRuntime::stats().
  const auto& pools = kernel_.pools().pools();
  for (const auto& [name, pool] : pools) {
    Add(counters, "sva_pchk_pool_live_objects",
        static_cast<uint64_t>(pool->live_objects()),
        StrCat("{pool=\"", name, "\"}"));
  }
  for (const auto& [name, pool] : pools) {
    Add(counters, "sva_pchk_pool_cache_hits_total", pool->cache_hits(),
        StrCat("{pool=\"", name, "\"}"));
  }
  for (const auto& [name, pool] : pools) {
    Add(counters, "sva_pchk_pool_cache_misses_total", pool->cache_misses(),
        StrCat("{pool=\"", name, "\"}"));
  }
  for (const auto& [name, pool] : pools) {
    Add(counters, "sva_pchk_pool_splay_rotations_total", pool->rotations(),
        StrCat("{pool=\"", name, "\"}"));
  }

  // Epoch-based reclamation (docs/CONCURRENCY.md §5). pinned_readers is a
  // gauge: it reports readers inside a critical section right now and must
  // return to 0 at quiescence (the check_epoch_reclaim gate asserts this).
  const smp::EpochDomain& epoch = smp::EpochDomain::Global();
  Add(counters, "sva_epoch_advances_total", epoch.advances());
  Add(counters, "sva_epoch_retired_total", epoch.retired());
  Add(counters, "sva_epoch_reclaimed_total", epoch.reclaimed());
  Add(counters, "sva_epoch_pinned_readers", epoch.pinned_readers());

  smp::SvaOsStats os = kernel_.svaos().stats();
  Add(counters, "sva_svaos_save_integer_total", os.save_integer);
  Add(counters, "sva_svaos_load_integer_total", os.load_integer);
  Add(counters, "sva_svaos_save_fp_total", os.save_fp);
  Add(counters, "sva_svaos_save_fp_skipped_total", os.save_fp_skipped);
  Add(counters, "sva_svaos_load_fp_total", os.load_fp);
  Add(counters, "sva_svaos_icontext_created_total", os.icontext_created);
  Add(counters, "sva_svaos_icontext_committed_total", os.icontext_committed);
  Add(counters, "sva_svaos_ipush_function_total", os.ipush_function);
  Add(counters, "sva_svaos_syscalls_dispatched_total",
      os.syscalls_dispatched);
  Add(counters, "sva_svaos_interrupts_dispatched_total",
      os.interrupts_dispatched);
  Add(counters, "sva_svaos_mmu_ops_total", os.mmu_ops);
  Add(counters, "sva_svaos_mmu_protects_total", os.mmu_protects);
  Add(counters, "sva_svaos_mmu_checks_failed_total", os.mmu_checks_failed);
  Add(counters, "sva_svaos_tlb_shootdowns_total", os.tlb_shootdowns);
  Add(counters, "sva_svaos_io_ops_total", os.io_ops);

  // Virtual-memory subsystem: fault/fill/COW traffic and frame-pool level.
  const mm::VmStats vm = kernel_.vm().stats();
  Add(counters, "sva_vm_page_faults_total", vm.page_faults);
  Add(counters, "sva_vm_demand_fills_total", vm.demand_fills);
  Add(counters, "sva_vm_cow_faults_total", vm.cow_faults);
  Add(counters, "sva_vm_cow_copies_total", vm.cow_copies);
  Add(counters, "sva_vm_forks_total", vm.forks_cow, "{mode=\"cow\"}");
  Add(counters, "sva_vm_forks_total", vm.forks_eager, "{mode=\"eager\"}");
  Add(counters, "sva_vm_shootdown_ipis_total", vm.shootdown_ipis);
  Add(counters, "sva_vm_frames_live", kernel_.frames().live_frames());
  Add(counters, "sva_vm_frames_free", kernel_.frames().free_frames());

  // Per-CPU TLBs, aggregated (the user-copy fast path's hit rate).
  hw::Tlb::Stats tlb{};
  svaos::SvaOS& svaos = kernel_.svaos();
  for (unsigned c = 0; c < svaos.num_cpus(); ++c) {
    hw::Tlb::Stats s = svaos.cpu(c).tlb().stats();
    tlb.hits += s.hits;
    tlb.misses += s.misses;
    tlb.invalidations += s.invalidations;
    tlb.shootdowns_received += s.shootdowns_received;
  }
  Add(counters, "sva_tlb_hits_total", tlb.hits);
  Add(counters, "sva_tlb_misses_total", tlb.misses);
  Add(counters, "sva_tlb_invalidations_total", tlb.invalidations);
  Add(counters, "sva_tlb_shootdowns_received_total",
      tlb.shootdowns_received);

  if (net::NetStack* net = kernel_.net()) {
    const net::NetStats& ns = net->stats();
    Add(counters, "sva_net_rx_delivered_total",
        ns.rx_delivered.load(std::memory_order_relaxed));
    Add(counters, "sva_net_rx_parse_errors_total",
        ns.rx_parse_errors.load(std::memory_order_relaxed));
    Add(counters, "sva_net_rx_violations_total",
        ns.rx_violations.load(std::memory_order_relaxed));
    Add(counters, "sva_net_rx_no_socket_total",
        ns.rx_no_socket.load(std::memory_order_relaxed));
    Add(counters, "sva_net_rx_queue_drops_total",
        ns.rx_queue_drops.load(std::memory_order_relaxed));
    Add(counters, "sva_net_tx_frames_total",
        ns.tx_frames.load(std::memory_order_relaxed));
    Add(counters, "sva_net_loopback_frames_total",
        ns.loopback_frames.load(std::memory_order_relaxed));
    Add(counters, "sva_net_conns_accepted_total",
        ns.conns_accepted.load(std::memory_order_relaxed));
    // NAPI batching: frames_polled / rx_irqs is the frames-per-interrupt
    // win; its inverse (irqs per frame) < 1 is the acceptance criterion.
    Add(counters, "sva_net_rx_irqs_total",
        ns.rx_irqs.load(std::memory_order_relaxed));
    Add(counters, "sva_net_rx_polls_total",
        ns.rx_polls.load(std::memory_order_relaxed));
    Add(counters, "sva_net_rx_frames_polled_total",
        ns.rx_frames_polled.load(std::memory_order_relaxed));
    Add(counters, "sva_net_rx_poll_budget", net::kNapiRxBudget);
  }

  // SVM execution-tier dispatch: how much verified bytecode ran on the
  // threaded tier vs the tree-walking interpreter, labelled by tier for
  // one-query speed-ratio panels.
  const trace::TierCounters& tiers = trace::TierCounters::Get();
  Add(counters, "sva_exec_tier_functions_total",
      tiers.threaded_fns.load(std::memory_order_relaxed),
      "{tier=\"threaded\"}");
  Add(counters, "sva_exec_tier_functions_total",
      tiers.interp_fns.load(std::memory_order_relaxed), "{tier=\"interp\"}");
  Add(counters, "sva_exec_tier_ops_total",
      tiers.threaded_ops.load(std::memory_order_relaxed),
      "{tier=\"threaded\"}");
  Add(counters, "sva_exec_tier_ops_total",
      tiers.interp_ops.load(std::memory_order_relaxed), "{tier=\"interp\"}");

  trace::Tracer& tracer = trace::Tracer::Get();
  Add(counters, "sva_trace_events_recorded_total",
      tracer.events_recorded());
  // Ring-loss and drain accounting: lost = overwritten/torn slots, drained =
  // consumed by the ContinuousDrainer, backlog = drained but not yet
  // exported.
  Add(counters, "sva_trace_events_lost_total", tracer.events_lost());
  const trace::DrainerStats& ds = trace::DrainerStats::Get();
  Add(counters, "sva_trace_drained_events_total",
      ds.drained_events.load(std::memory_order_relaxed));
  Add(counters, "sva_trace_drainer_backlog_total",
      ds.backlog.load(std::memory_order_relaxed));

  // Sampling profiler: totals plus the per-context sample-share table
  // (sample counts labelled by what the CPU was doing when hit).
  const trace::Profiler& prof = trace::Profiler::Get();
  const trace::Profiler::Stats ps = prof.stats();
  Add(counters, "sva_prof_samples_total", ps.samples);
  Add(counters, "sva_prof_lost_total", ps.lost);
  Add(counters, "sva_prof_stacks_truncated_total", ps.stacks_truncated);
  std::vector<uint64_t> per_context = prof.ContextCounts();
  for (size_t c = 0; c < per_context.size(); ++c) {
    Add(counters, "sva_prof_context_samples_total", per_context[c],
        StrCat("{context=\"",
               trace::ProfContextName(static_cast<trace::ProfContext>(c)),
               "\"}"));
  }

  return trace::RenderPrometheus(counters,
                                 trace::Metrics::Get().Snapshot());
}

Result<std::string> MetricsServer::ServeOne() {
  if (!started_) {
    return FailedPrecondition("metrics server not started");
  }
  SVA_ASSIGN_OR_RETURN(uint64_t conn,
                       kernel_.Syscall(Sys::kAccept, listener_));
  if (IsErrno(conn)) {
    return FailedPrecondition("metrics server: no pending connection");
  }
  const uint64_t scratch =
      kUserVirtualBase +
      static_cast<uint64_t>(kernel_.current_pid()) * 0x100000 +
      kScratchOffset;
  SVA_ASSIGN_OR_RETURN(uint64_t got,
                       kernel_.Syscall(Sys::kRecv, conn, scratch, 256));
  if (IsErrno(got) || got == 0) {
    (void)kernel_.Syscall(Sys::kClose, conn);
    return FailedPrecondition("metrics server: empty request");
  }
  char request[257] = {};
  SVA_RETURN_IF_ERROR(
      kernel_.PeekUser(scratch, request, std::min<uint64_t>(got, 256)));

  std::string response;
  if (std::strncmp(request, "GET /metrics", 12) == 0) {
    std::string body = RenderText();
    response = StrCat("HTTP/1.0 200 OK\r\n",
                      "Content-Type: text/plain; version=0.0.4\r\n",
                      "Content-Length: ", body.size(), "\r\n\r\n", body);
  } else {
    const std::string body = "not found\n";
    response = StrCat("HTTP/1.0 404 Not Found\r\n",
                      "Content-Type: text/plain\r\n",
                      "Content-Length: ", body.size(), "\r\n\r\n", body);
  }

  // Stream the response back through the user scratch window; kSend
  // fragments each chunk into MTU-sized frames on its own.
  for (uint64_t done = 0; done < response.size();) {
    uint64_t n = std::min<uint64_t>(kSendChunk, response.size() - done);
    SVA_RETURN_IF_ERROR(kernel_.PokeUser(scratch, response.data() + done, n));
    SVA_ASSIGN_OR_RETURN(uint64_t sent,
                         kernel_.Syscall(Sys::kSend, conn, scratch, n));
    if (IsErrno(sent) || sent != n) {
      (void)kernel_.Syscall(Sys::kClose, conn);
      return Internal("metrics server: short send");
    }
    done += n;
  }
  SVA_ASSIGN_OR_RETURN(uint64_t closed, kernel_.Syscall(Sys::kClose, conn));
  (void)closed;
  return response;
}

}  // namespace sva::kernel
