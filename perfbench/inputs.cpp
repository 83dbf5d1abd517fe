#include "inputs.hpp"

#include <algorithm>

#include "phase/builders.hpp"
#include "util/rng.hpp"
#include "workload/paper_configs.hpp"

namespace perfbench {

using gs::gang::SystemParams;
using gs::workload::PaperKnobs;

namespace {

template <class T>
void shuffle(std::vector<T>& v, gs::util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.uniform_int(i)]);
}

// The quantum axis of Figures 2 and 3, as bench/fig_common.hpp builds it.
std::vector<double> quantum_axis() {
  std::vector<double> xs;
  for (double q : {0.02, 0.035, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75}) xs.push_back(q);
  for (double q = 1.0; q <= 6.0 + 1e-9; q += 0.5) xs.push_back(q);
  return xs;
}

Call quantum_figure(const char* group, double arrival_rate) {
  Call c;
  c.group = group;
  c.sweep = true;
  c.xs = quantum_axis();
  c.make = [arrival_rate](double quantum) {
    PaperKnobs knobs;
    knobs.arrival_rate = arrival_rate;
    knobs.quantum_mean = quantum;
    return gs::workload::paper_system(knobs);
  };
  return c;
}

}  // namespace

std::vector<Call> figures_calls(std::uint64_t seed) {
  gs::util::Rng rng(seed);
  std::vector<std::vector<Call>> blocks(4);
  blocks[0].push_back(quantum_figure("figure2", 0.4));
  blocks[1].push_back(quantum_figure("figure3", 0.9));

  Call fig4;
  fig4.group = "figure4";
  fig4.sweep = true;
  for (double mu = 2.0; mu <= 20.0 + 1e-9; mu += 1.0) fig4.xs.push_back(mu);
  fig4.make = [](double mu) {
    PaperKnobs knobs;
    knobs.arrival_rate = 0.6;
    knobs.quantum_mean = 5.0;
    knobs.uniform_service_rate = mu;
    return gs::workload::paper_system(knobs);
  };
  fig4.shape = Shape::kFalls;
  blocks[2].push_back(fig4);

  // Figure 5, as fig5_cycle_fraction loops it: fraction 0.1 .. 0.9 for
  // each favored class.
  for (std::size_t favored = 0; favored < 4; ++favored) {
    for (int tenth = 1; tenth <= 9; ++tenth) {
      Call c;
      c.group = "figure5 class" + std::to_string(favored);
      c.xs = {tenth / 10.0};
      c.favored = favored;
      c.make = [favored](double fraction) {
        return gs::workload::figure5_system(favored, fraction);
      };
      c.shape = Shape::kFalls;
      blocks[3].push_back(c);
    }
  }
  shuffle(blocks[3], rng);
  shuffle(blocks, rng);
  std::vector<Call> calls;
  for (auto& b : blocks)
    for (auto& c : b) calls.push_back(std::move(c));
  return calls;
}

SystemParams wide_system(std::size_t processors, double lambda) {
  const double ladder[4] = {0.5, 1.0, 2.0, 4.0};
  std::vector<gs::gang::ClassParams> cls;
  for (std::size_t p = 0; p < 4; ++p) {
    cls.push_back(gs::gang::ClassParams{
        gs::phase::exponential(lambda), gs::phase::exponential(ladder[p]),
        gs::phase::erlang(2, 1.0), gs::phase::exponential(100.0),
        std::size_t{1} << p, "class" + std::to_string(p)});
  }
  return SystemParams(processors, std::move(cls));
}

std::vector<Call> wide_machine_calls(std::uint64_t seed) {
  gs::util::Rng rng(seed);
  // Each class has rho_p = 2 lambda / P here, so rho = 8 lambda / P. Each
  // sweep spans rho = 0.1 .. 0.6; the seed moves every point by up to
  // 0.5% of its load, little enough that a run's cost (truncation depths,
  // iterations) barely depends on the seed.
  const auto grid = [&rng](std::size_t processors, std::size_t points) {
    std::vector<double> xs;
    const double lo = 0.1, hi = 0.6;
    const double step = (hi - lo) / static_cast<double>(points - 1);
    for (std::size_t i = 0; i < points; ++i) {
      const double rho = (lo + step * static_cast<double>(i)) *
                         (1.0 + 0.01 * (rng.uniform() - 0.5));
      xs.push_back(rho * static_cast<double>(processors) / 8.0);
    }
    return xs;
  };
  std::vector<Call> calls;
  for (const auto& [processors, points] :
       {std::pair<std::size_t, std::size_t>{16, 8}, {32, 3}}) {
    Call c;
    c.group = "P=" + std::to_string(processors);
    c.sweep = true;
    c.xs = grid(processors, points);
    c.make = [processors](double lambda) {
      return wide_system(processors, lambda);
    };
    c.shape = Shape::kRises;
    calls.push_back(std::move(c));
  }
  return calls;
}

}  // namespace perfbench
