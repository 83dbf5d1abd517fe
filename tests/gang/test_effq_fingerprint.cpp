// Bitwise fingerprints of the Theorem 4.3 effective-quantum extraction.
//
// The refit's block solve shares one factorization between both moment
// right-hand sides and across the bitwise-repeating tail of the censored
// chain. Both are claimed to leave every bit of the answer unchanged, so
// the (truncation depth, atom, m1, m2) of a few representative chains are
// pinned here as hex-float literals taken from the per-level, twice-
// factored solve the refit used before. Any change to a fingerprint is a
// change to the answers, not a rounding detail.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "gang/away_period.hpp"
#include "gang/class_process.hpp"
#include "phase/builders.hpp"
#include "qbd/solver.hpp"
#include "workload/paper_configs.hpp"

namespace {

using namespace gs::gang;

struct Fingerprint {
  std::size_t levels;
  double atom, m1, m2;
};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void expect_bitwise(const SystemParams& sys, std::size_t p,
                    const Fingerprint& want, const char* what) {
  ClassProcess proc(sys, p, away_period_heavy_traffic(sys, p));
  const gs::qbd::QbdSolution sol = gs::qbd::solve(proc.process());
  const EffectiveQuantum eq = proc.effective_quantum(sol);
  SCOPED_TRACE(std::string(what) + " class " + std::to_string(p) + ": got {" +
               std::to_string(eq.truncation_levels) + ", " + hex(eq.atom) +
               ", " + hex(eq.m1) + ", " + hex(eq.m2) + "}");
  EXPECT_EQ(eq.truncation_levels, want.levels);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(eq.atom),
            std::bit_cast<std::uint64_t>(want.atom));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(eq.m1),
            std::bit_cast<std::uint64_t>(want.m1));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(eq.m2),
            std::bit_cast<std::uint64_t>(want.m2));
}

SystemParams figure_point(double arrival_rate, double quantum_mean) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = arrival_rate;
  knobs.quantum_mean = quantum_mean;
  return gs::workload::paper_system(knobs);
}

TEST(EffqFingerprint, Figure2LightLoadPoint) {
  // rho = 0.4, mean quantum 1: shallow chains (~50 levels), 2x2 blocks.
  const SystemParams sys = figure_point(0.4, 1.0);
  const Fingerprint want[4] = {
      {49, 0x1.17cfaa5c052bcp-5, 0x1.d4edd478bdcfcp-1, 0x1.4c593f05bb95fp+0},
      {47, 0x1.f9f0da0cc8f1cp-4, 0x1.60a81f445b61cp-1, 0x1.a36a476f98157p-1},
      {46, 0x1.acffed41c4d1bp-3, 0x1.d3146580cd1c9p-2, 0x1.ac5925d654d85p-2},
      {46, 0x1.fd0729ac8cc03p-3, 0x1.59e26af37a1fep-2, 0x1.0e0c9e015ef21p-2},
  };
  for (std::size_t p = 0; p < 4; ++p)
    expect_bitwise(sys, p, want[p], "figure 2");
}

TEST(EffqFingerprint, Figure3HeavyLoadDeepestChain) {
  // rho = 0.9, mean quantum 0.1: the deepest truncation Figure 3 reaches
  // (~2960 levels), almost all of them the repeating tail.
  const SystemParams sys = figure_point(0.9, 0.1);
  const Fingerprint want[4] = {
      {2961, 0x1.1cb7ce4374b97p-15, 0x1.9995205d2238p-4, 0x1.eb7ec28bb1815p-7},
      {2958, 0x1.233dd87e60a65p-10, 0x1.990707a75ebadp-4, 0x1.eab5bbaf47b3cp-7},
      {2957, 0x1.6203d0739b592p-8, 0x1.96cfb44793a52p-4, 0x1.e79b77886630fp-7},
      {2957, 0x1.4e84e61fa32d5p-7, 0x1.945099450981fp-4, 0x1.e430c4ff157f2p-7},
  };
  for (std::size_t p = 0; p < 4; ++p)
    expect_bitwise(sys, p, want[p], "figure 3");
}

TEST(EffqFingerprint, MultiPhaseServiceChain) {
  // Erlang-2 service on c = 4 partitions: the serving blocks grow with
  // the configuration count and their off-diagonals are sparse enough to
  // take the CSR kernels.
  gs::gang::ClassParams c0{gs::phase::exponential(0.6),
                           gs::phase::erlang(2, 1.0),
                           gs::phase::erlang(2, 1.0),
                           gs::phase::exponential(100.0), 2, "erl"};
  gs::gang::ClassParams c1{gs::phase::exponential(0.3),
                           gs::phase::exponential(1.5),
                           gs::phase::erlang(2, 1.0),
                           gs::phase::exponential(100.0), 4, "exp"};
  const SystemParams sys(8, {c0, c1});
  const Fingerprint want[2] = {
      {30, 0x1.58cfa2b42a2a6p-2, 0x1.f02b086718f78p-2, 0x1.0f9e05cc7f347p-1},
      {22, 0x1.4736118c35d8ep-1, 0x1.884b1105f2bcp-3, 0x1.5d06d65fd85f5p-3},
  };
  for (std::size_t p = 0; p < 2; ++p)
    expect_bitwise(sys, p, want[p], "multi-phase");
}

}  // namespace
