#include "stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"

namespace vgpu::bench_e2e {

double tail_quantile(std::size_t n, double cap, std::size_t beyond) {
  if (n <= beyond) return 0.5;
  const auto last = static_cast<double>(n - 1);
  const auto rank_floor = static_cast<std::size_t>(std::floor(cap * last));
  if (n - 1 - rank_floor >= beyond) return cap;
  // Rank exactly n-1-beyond leaves `beyond` samples above it.
  return static_cast<double>(n - 1 - beyond) / last;
}

double median(std::vector<double> values) {
  return SampleStats(std::move(values)).median();
}

std::array<double, 3> quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  if (ld < 2) {
    out.fill(ld == 1 ? values[0] : 0.0);
    return out;
  }
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] *
             static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

bool step_meets_slo(const LadderStep& step, double target_ms) {
  return step.lc_p99_ms <= target_ms && step.attainment_pct >= 99.0 &&
         !step.backlog_growing;
}

double max_rate_x(const std::vector<LadderStep>& steps, double target_ms) {
  double best = 0.0;
  for (const LadderStep& step : steps) {
    if (step_meets_slo(step, target_ms)) best = std::max(best, step.factor);
  }
  return best;
}

bool lateness_growing(const std::vector<double>& late_ms,
                      double tolerance_ms) {
  const std::size_t n = late_ms.size();
  if (n < 8) return false;
  const std::size_t quarter = n / 4;
  const std::vector<double> first(late_ms.begin(),
                                  late_ms.begin() + static_cast<long>(quarter));
  const std::vector<double> last(late_ms.end() - static_cast<long>(quarter),
                                 late_ms.end());
  return median(last) > median(first) + tolerance_ms;
}

}  // namespace vgpu::bench_e2e
