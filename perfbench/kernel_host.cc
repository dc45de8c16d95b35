#include "kernel_host.h"

namespace perfbench {

double BootMs(Report& report) {
  uint64_t t0 = NowNs();
  KernelHost boot;
  const double ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (!boot.booted()) report.Fail("kernel boot");
  return ms;
}

void ReportKernelCounters(const KernelCounters& b, const KernelCounters& a,
                          double ops, double cgi, Report& report) {
  auto per = [](uint64_t after, uint64_t before, double n) {
    return n > 0 ? static_cast<double>(after - before) / n : 0.0;
  };
  ReportCheckStats(b.checks, a.checks, ops, report);

  const sva::smp::SvaOsStats& oa = a.os;
  const sva::smp::SvaOsStats& ob = b.os;
  report.Set("svaos.dispatch_per_op",
             per(oa.syscalls_dispatched + oa.interrupts_dispatched,
                 ob.syscalls_dispatched + ob.interrupts_dispatched, ops));
  auto state_ops = [](const sva::smp::SvaOsStats& s) {
    return s.save_integer + s.load_integer + s.save_fp + s.load_fp +
           s.icontext_created + s.icontext_committed + s.ipush_function;
  };
  report.Set("svaos.state_ops_per_op", per(state_ops(oa), state_ops(ob), ops));
  report.Set("svaos.io_ops_per_req", per(oa.io_ops, ob.io_ops, ops));

  report.Set("kernel.bytes_copied_per_op",
             per(a.bytes_copied, b.bytes_copied, ops));
  const uint64_t tlb_hits = a.tlb_hits - b.tlb_hits;
  const uint64_t tlb_all = tlb_hits + a.tlb_misses - b.tlb_misses;
  report.Set("mm.tlb_hit_rate",
             tlb_all ? static_cast<double>(tlb_hits) /
                           static_cast<double>(tlb_all)
                     : 0.0);
  report.Set("mm.page_faults_per_cgi",
             per(a.vm.page_faults, b.vm.page_faults, cgi));
  report.Set("mm.cow_faults_per_cgi",
             per(a.vm.cow_faults, b.vm.cow_faults, cgi));
  report.Set("mm.demand_fills_per_cgi",
             per(a.vm.demand_fills, b.vm.demand_fills, cgi));
  report.Set("mm.shootdown_ipis_per_cgi",
             per(a.vm.shootdown_ipis, b.vm.shootdown_ipis, cgi));

  report.Set("smp.epoch_advances_per_op",
             per(a.epoch_advances, b.epoch_advances, ops));
  report.Set("smp.epoch_pending",
             static_cast<double>(sva::smp::EpochDomain::Global().pending()));

  report.Set("net.tx_frames_per_req", per(a.tx_frames, b.tx_frames, ops));
  report.Set("net.rx_irqs_per_frame",
             per(a.rx_irqs, b.rx_irqs,
                 static_cast<double>(a.rx_frames_polled - b.rx_frames_polled)));
  report.Set("net.frames_per_poll",
             per(a.rx_frames_polled, b.rx_frames_polled,
                 static_cast<double>(a.rx_polls - b.rx_polls)));
}

}  // namespace perfbench
