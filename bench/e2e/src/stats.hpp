// Summary statistics of the benchmark: the tail-percentile rule, the
// quartiles the stability check uses, and the open-loop rate-ladder
// decision. Pure functions, unit-tested in tests/unit_test.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace vgpu::bench_e2e {

/// The highest quantile, at most `cap`, that leaves at least `beyond`
/// samples above it under the repository's percentile rule (linear
/// interpolation at rank q*(n-1), common/stats.hpp): q qualifies when
/// n - 1 - floor(q*(n-1)) >= beyond. With n <= beyond no quantile
/// qualifies and the median (0.5) is returned.
double tail_quantile(std::size_t n, double cap = 0.99,
                     std::size_t beyond = 10);

/// Median (0 for an empty set).
double median(std::vector<double> values);

/// First, second and third quartile by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4) — the spread measure the benchmark's
/// stability check applies to repeated runs. Needs at least two values.
std::array<double, 3> quartiles(std::vector<double> values);

/// One rung of the open-loop rate ladder (mix_open).
struct LadderStep {
  double factor = 1.0;          // x the base arrival rates
  double lc_p99_ms = 0.0;       // latency-critical tenant, from release
  double attainment_pct = 0.0;  // released lc jobs done within the target
  bool backlog_growing = false;
};

/// lc p99 within the target, at least 99 % attainment, no growing backlog.
bool step_meets_slo(const LadderStep& step, double target_ms);

/// The highest factor among the steps that meet the SLO; 0 when none does.
double max_rate_x(const std::vector<LadderStep>& steps, double target_ms);

/// True when lateness (job start minus scheduled release, in release
/// order) grows across a step: the median of the last quarter exceeds the
/// median of the first quarter by more than `tolerance_ms`. Fewer than
/// eight releases never count as growing.
bool lateness_growing(const std::vector<double>& late_ms,
                      double tolerance_ms);

}  // namespace vgpu::bench_e2e
