#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/status.h"
#include "quantum/basis_sim.h"
#include "quantum/bitstring.h"
#include "quantum/circuit.h"
#include "quantum/gate.h"
#include "quantum/statevector.h"
#include "resilience/fault_injection.h"

namespace qplex {
namespace {

// -- BitString ----------------------------------------------------------------

TEST(BitStringTest, GetSetFlip) {
  BitString bits(130);
  EXPECT_TRUE(bits.IsZero());
  bits.Set(0, true);
  bits.Set(64, true);
  bits.Set(129, true);
  EXPECT_EQ(bits.PopCount(), 3);
  bits.Flip(64);
  EXPECT_FALSE(bits.Get(64));
  EXPECT_EQ(bits.PopCount(), 2);
}

TEST(BitStringTest, StoreLoadInt) {
  BitString bits(80);
  bits.StoreInt(10, 8, 0xAB);
  EXPECT_EQ(bits.LoadInt(10, 8), 0xABu);
  EXPECT_EQ(bits.LoadInt(0, 10), 0u);
  bits.StoreInt(60, 10, 0x3FF);
  EXPECT_EQ(bits.LoadInt(60, 10), 0x3FFu);
  // Overwrite narrows correctly.
  bits.StoreInt(60, 10, 5);
  EXPECT_EQ(bits.LoadInt(60, 10), 5u);
}

TEST(BitStringTest, ToStringOrder) {
  BitString bits(4);
  bits.Set(0, true);
  bits.Set(3, true);
  EXPECT_EQ(bits.ToString(), "1001");
}

// -- Gate ---------------------------------------------------------------------

TEST(GateTest, Constructors) {
  EXPECT_EQ(MakeX(3).ToString(), "X(3)");
  EXPECT_EQ(MakeCX(1, 2).ToString(), "CX(1 -> 2)");
  EXPECT_EQ(MakeCCX(0, 1, 2).ToString(), "CCX(0,1 -> 2)");
  EXPECT_EQ(MakeMCX({Control{4, false}}, 5).ToString(), "CX(!4 -> 5)");
  EXPECT_TRUE(MakeX(0).IsClassical());
  EXPECT_TRUE(MakeZ(0).IsClassical());
  EXPECT_FALSE(MakeH(0).IsClassical());
}

TEST(GateTest, CostCountsControls) {
  EXPECT_EQ(MakeX(0).Cost(), 1);
  EXPECT_EQ(MakeCCX(0, 1, 2).Cost(), 3);
  EXPECT_EQ(MakeMCX({1, 2, 3, 4}, 0).Cost(), 5);
}

// -- Circuit ------------------------------------------------------------------

TEST(CircuitTest, RegisterAllocation) {
  Circuit circuit;
  const QubitRange a = circuit.AllocateRegister("a", 3);
  const int b = circuit.AllocateQubit("b");
  EXPECT_EQ(a.start, 0);
  EXPECT_EQ(a.width, 3);
  EXPECT_EQ(a[2], 2);
  EXPECT_EQ(b, 3);
  EXPECT_EQ(circuit.num_qubits(), 4);
}

TEST(CircuitTest, AncillaNamesUnique) {
  Circuit circuit;
  const QubitRange a = circuit.AllocateAncilla("tmp", 2);
  const QubitRange b = circuit.AllocateAncilla("tmp", 2);
  EXPECT_EQ(a.start, 0);
  EXPECT_EQ(b.start, 2);
}

TEST(CircuitTest, StageTagging) {
  Circuit circuit;
  circuit.AllocateRegister("q", 3);
  circuit.Append(MakeX(0));
  circuit.BeginStage("phase2");
  circuit.Append(MakeCX(0, 1));
  circuit.Append(MakeCCX(0, 1, 2));
  const auto costs = circuit.CostsByStage();
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_EQ(costs[0], 1);
  EXPECT_EQ(costs[1], 2 + 3);
  EXPECT_EQ(circuit.TotalCost(), 6);
}

TEST(CircuitTest, BeginStageReusesExistingName) {
  Circuit circuit;
  circuit.AllocateQubit("q");
  const int first = circuit.BeginStage("s");
  circuit.BeginStage("other");
  const int again = circuit.BeginStage("s");
  EXPECT_EQ(first, again);
  EXPECT_EQ(circuit.stage_names().size(), 3u);  // default, s, other
}

TEST(CircuitTest, InverseOfRangeRestoresState) {
  Circuit circuit;
  circuit.AllocateRegister("q", 4);
  circuit.Append(MakeX(0));
  circuit.Append(MakeCX(0, 1));
  circuit.Append(MakeCCX(0, 1, 2));
  circuit.Append(MakeCX(2, 3));
  circuit.AppendInverseOfRange(0, circuit.num_gates());

  BitString input(4);
  const BitString output =
      BasisStateSimulator::Execute(circuit, input).value();
  EXPECT_TRUE(output.IsZero());
}

// -- BasisStateSimulator --------------------------------------------------------

TEST(BasisSimTest, XFlipsTarget) {
  Circuit circuit;
  circuit.AllocateRegister("q", 2);
  circuit.Append(MakeX(1));
  const BitString out =
      BasisStateSimulator::Execute(circuit, BitString(2)).value();
  EXPECT_FALSE(out.Get(0));
  EXPECT_TRUE(out.Get(1));
}

TEST(BasisSimTest, ControlledXRespectsPolarity) {
  Circuit circuit;
  circuit.AllocateRegister("q", 3);
  circuit.Append(MakeMCX({Control{0, true}, Control{1, false}}, 2));

  BitString in(3);
  in.Set(0, true);  // control 0 fires, control 1 (negative) fires
  BitString out = BasisStateSimulator::Execute(circuit, in).value();
  EXPECT_TRUE(out.Get(2));

  in.Set(1, true);  // negative control now blocks
  out = BasisStateSimulator::Execute(circuit, in).value();
  EXPECT_FALSE(out.Get(2));
}

TEST(BasisSimTest, RejectsHadamard) {
  Circuit circuit;
  circuit.AllocateQubit("q");
  circuit.Append(MakeH(0));
  BasisStateSimulator sim(1);
  EXPECT_EQ(sim.Run(circuit).code(), StatusCode::kFailedPrecondition);
}

TEST(BasisSimTest, ZTracksPhaseParity) {
  Circuit circuit;
  circuit.AllocateRegister("q", 2);
  circuit.Append(MakeZ(0));
  circuit.Append(MakeMCZ({1}, 0));

  BasisStateSimulator sim(2);
  sim.mutable_state()->Set(0, true);
  QPLEX_CHECK(sim.Run(circuit).ok());
  // Plain Z fires (target |1>), controlled-Z does not (control |0>).
  EXPECT_TRUE(sim.phase_parity());
}

TEST(BasisSimTest, CcxTruthTable) {
  Circuit circuit;
  circuit.AllocateRegister("q", 3);
  circuit.Append(MakeCCX(0, 1, 2));
  for (std::uint64_t in = 0; in < 8; ++in) {
    BitString bits(3);
    bits.StoreInt(0, 3, in);
    const BitString out = BasisStateSimulator::Execute(circuit, bits).value();
    const std::uint64_t expected = ((in & 3) == 3) ? (in ^ 4) : in;
    EXPECT_EQ(out.LoadInt(0, 3), expected) << "input " << in;
  }
}

TEST(BasisSimTest, InputWiderThanCircuitFails) {
  Circuit circuit;
  circuit.AllocateQubit("q");
  EXPECT_FALSE(BasisStateSimulator::Execute(circuit, BitString(5)).ok());
}

// -- StateVectorSimulator --------------------------------------------------------

TEST(StateVectorTest, InitialState) {
  StateVectorSimulator sim(3);
  EXPECT_EQ(sim.dimension(), 8u);
  EXPECT_NEAR(sim.Probability(0), 1.0, 1e-12);
  EXPECT_NEAR(sim.TotalProbability(), 1.0, 1e-12);
}

TEST(StateVectorTest, XMovesAmplitude) {
  StateVectorSimulator sim(2);
  sim.ApplyX(1);
  EXPECT_NEAR(sim.Probability(2), 1.0, 1e-12);
}

TEST(StateVectorTest, HCreatesSuperposition) {
  StateVectorSimulator sim(1);
  sim.ApplyH(0);
  EXPECT_NEAR(sim.Probability(0), 0.5, 1e-12);
  EXPECT_NEAR(sim.Probability(1), 0.5, 1e-12);
  sim.ApplyH(0);  // H is self-inverse
  EXPECT_NEAR(sim.Probability(0), 1.0, 1e-12);
}

TEST(StateVectorTest, PrepareUniform) {
  StateVectorSimulator sim(4);
  sim.PrepareUniform();
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(sim.Probability(i), 1.0 / 16, 1e-12);
  }
}

TEST(StateVectorTest, ZFlipsPhase) {
  StateVectorSimulator sim(1);
  sim.ApplyH(0);
  sim.ApplyZ(0);
  sim.ApplyH(0);  // HZH = X
  EXPECT_NEAR(sim.Probability(1), 1.0, 1e-12);
}

TEST(StateVectorTest, ControlledGateOnlyFiresWhenControlSet) {
  StateVectorSimulator sim(2);
  sim.ApplyGate(MakeCX(0, 1));
  EXPECT_NEAR(sim.Probability(0), 1.0, 1e-12);  // control |0>: no-op
  sim.ApplyX(0);
  sim.ApplyGate(MakeCX(0, 1));
  EXPECT_NEAR(sim.Probability(3), 1.0, 1e-12);  // |11>
}

TEST(StateVectorTest, BellStateViaCircuit) {
  Circuit circuit;
  circuit.AllocateRegister("q", 2);
  circuit.Append(MakeH(0));
  circuit.Append(MakeCX(0, 1));
  StateVectorSimulator sim(2);
  sim.RunCircuit(circuit);
  EXPECT_NEAR(sim.Probability(0), 0.5, 1e-12);
  EXPECT_NEAR(sim.Probability(3), 0.5, 1e-12);
  EXPECT_NEAR(sim.Probability(1), 0.0, 1e-12);
  EXPECT_NEAR(sim.Probability(2), 0.0, 1e-12);
}

TEST(StateVectorTest, PhaseOracleAndDiffusionAmplify) {
  // One Grover iteration on 3 qubits with a single marked state: success
  // probability sin^2(3*theta), theta = asin(1/sqrt(8)).
  StateVectorSimulator sim(3);
  sim.PrepareUniform();
  const std::uint64_t marked = 5;
  sim.ApplyPhaseOracle([marked](std::uint64_t x) { return x == marked; });
  sim.ApplyDiffusion();
  const double theta = std::asin(1.0 / std::sqrt(8.0));
  EXPECT_NEAR(sim.Probability(marked), std::pow(std::sin(3 * theta), 2),
              1e-12);
  EXPECT_NEAR(sim.TotalProbability(), 1.0, 1e-12);
}

TEST(StateVectorTest, PhaseOracleListForm) {
  StateVectorSimulator sim(3);
  sim.PrepareUniform();
  sim.ApplyPhaseOracle(std::vector<std::uint64_t>{1, 6});
  EXPECT_NEAR(sim.amplitude(1).real(), -1.0 / std::sqrt(8.0), 1e-12);
  EXPECT_NEAR(sim.amplitude(6).real(), -1.0 / std::sqrt(8.0), 1e-12);
  EXPECT_NEAR(sim.amplitude(0).real(), 1.0 / std::sqrt(8.0), 1e-12);
}

TEST(StateVectorTest, SuccessProbability) {
  StateVectorSimulator sim(3);
  sim.PrepareUniform();
  const double p = sim.SuccessProbability(
      [](std::uint64_t x) { return x % 2 == 0; });
  EXPECT_NEAR(p, 0.5, 1e-12);
}

TEST(StateVectorTest, SamplingMatchesDistribution) {
  StateVectorSimulator sim(2);
  sim.ApplyH(0);  // P(0)=P(1)=0.5 on qubit 0
  Rng rng(21);
  const std::vector<int> counts = sim.Sample(rng, 20000);
  EXPECT_EQ(counts[2] + counts[3], 0);
  EXPECT_NEAR(counts[0] / 20000.0, 0.5, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.5, 0.02);
}

/// Property: on classical circuits, the dense state-vector simulator and the
/// basis-state simulator agree exactly for every basis input. This is the
/// bridge that justifies simulating the wide oracles one basis state at a
/// time.
class SimulatorEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorEquivalenceTest, BasisAndStateVectorAgree) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const int n = 6;
  Circuit circuit;
  circuit.AllocateRegister("q", n);
  for (int g = 0; g < 40; ++g) {
    const int target = static_cast<int>(rng.UniformInt(n));
    std::vector<Control> controls;
    const int num_controls = static_cast<int>(rng.UniformInt(3));
    for (int c = 0; c < num_controls; ++c) {
      const int wire = static_cast<int>(rng.UniformInt(n));
      if (wire != target) {
        controls.push_back(Control{wire, rng.Bernoulli(0.7)});
      }
    }
    circuit.Append(MakeMCX(std::move(controls), target));
  }

  for (int trial = 0; trial < 8; ++trial) {
    const std::uint64_t input = rng.UniformInt(std::uint64_t{1} << n);
    // Basis simulator.
    BitString bits(n);
    bits.StoreInt(0, n, input);
    const std::uint64_t expected =
        BasisStateSimulator::Execute(circuit, bits).value().LoadInt(0, n);
    // Dense simulator from the same basis state.
    StateVectorSimulator sim(n);
    for (int q = 0; q < n; ++q) {
      if ((input >> q) & 1) {
        sim.ApplyX(q);
      }
    }
    sim.RunCircuit(circuit);
    EXPECT_NEAR(sim.Probability(expected), 1.0, 1e-9)
        << "seed=" << seed << " input=" << input;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorEquivalenceTest,
                         ::testing::Range(1, 7));

TEST(StateVectorTest, SampleOneReturnsSupportedState) {
  StateVectorSimulator sim(3);
  sim.ApplyX(2);
  Rng rng(5);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(sim.SampleOne(rng), 4u);
  }
}

// -- Threaded kernels ---------------------------------------------------------

/// A random Grover-style workload touching every parallel kernel: controlled
/// X via RunCircuit, bare X/H/Z, phase oracle (predicate form), diffusion.
/// n = 13 gives 8192 amplitudes (4096 gate pairs), i.e. several
/// kParallelChunkSize chunks, so the multi-chunk paths genuinely run.
StateVectorSimulator RunThreadedWorkload(int num_threads) {
  const int n = 13;
  StateVectorSimulator sim(n, num_threads);
  sim.PrepareUniform();
  Rng rng(99);
  Circuit circuit;
  circuit.AllocateRegister("q", n);
  for (int g = 0; g < 24; ++g) {
    const int target = static_cast<int>(rng.UniformInt(n));
    std::vector<Control> controls;
    const int num_controls = static_cast<int>(rng.UniformInt(3));
    for (int c = 0; c < num_controls; ++c) {
      const int wire = static_cast<int>(rng.UniformInt(n));
      if (wire != target) {
        controls.push_back(Control{wire, rng.Bernoulli(0.7)});
      }
    }
    circuit.Append(MakeMCX(std::move(controls), target));
  }
  sim.RunCircuit(circuit);
  for (int q = 0; q < n; ++q) {
    sim.ApplyH(q);
    if (q % 3 == 0) {
      sim.ApplyZ(q);
    }
    if (q % 4 == 1) {
      sim.ApplyX(q);
    }
  }
  for (int round = 0; round < 3; ++round) {
    sim.ApplyPhaseOracle(
        [](std::uint64_t basis) { return __builtin_popcountll(basis) >= 7; });
    sim.ApplyDiffusion();
  }
  return sim;
}

TEST(StateVectorThreadingTest, AmplitudesBitIdenticalAcrossThreadCounts) {
  // The determinism contract: fixed chunk boundaries + ordered combines mean
  // the thread count never changes a single bit of the state. Exact ==, not
  // EXPECT_NEAR.
  const StateVectorSimulator serial = RunThreadedWorkload(1);
  for (int threads : {2, 4}) {
    const StateVectorSimulator threaded = RunThreadedWorkload(threads);
    ASSERT_EQ(serial.dimension(), threaded.dimension());
    const auto& a = serial.amplitudes();
    const auto& b = threaded.amplitudes();
    for (std::uint64_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].real(), b[i].real()) << "threads=" << threads << " i=" << i;
      ASSERT_EQ(a[i].imag(), b[i].imag()) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(StateVectorThreadingTest, DistributionsAndSamplesMatchSerial) {
  // Probabilities and the sampling CDF are also built in parallel; identical
  // amplitudes must yield identical distributions and, with equal Rng streams,
  // identical draws.
  const StateVectorSimulator serial = RunThreadedWorkload(1);
  const StateVectorSimulator threaded = RunThreadedWorkload(4);
  const std::vector<double> p1 = serial.Probabilities();
  const std::vector<double> p4 = threaded.Probabilities();
  ASSERT_EQ(p1.size(), p4.size());
  for (std::uint64_t i = 0; i < p1.size(); ++i) {
    ASSERT_EQ(p1[i], p4[i]) << "i=" << i;
  }
  EXPECT_EQ(serial.SuccessProbability([](std::uint64_t basis) {
    return __builtin_popcountll(basis) >= 7;
  }),
            threaded.SuccessProbability([](std::uint64_t basis) {
              return __builtin_popcountll(basis) >= 7;
            }));
  Rng rng_serial(7);
  Rng rng_threaded(7);
  EXPECT_EQ(serial.Sample(rng_serial, 64), threaded.Sample(rng_threaded, 64));
  EXPECT_EQ(serial.SampleOne(rng_serial), threaded.SampleOne(rng_threaded));
}

TEST(StateVectorThreadingTest, SetNumThreadsIsObservable) {
  StateVectorSimulator sim(4);
  EXPECT_EQ(sim.num_threads(), 1);
  sim.set_num_threads(3);
  EXPECT_EQ(sim.num_threads(), 3);
}

// -- Simulation memory budget -------------------------------------------------

TEST(SimulationBudgetTest, DefaultBudgetIsFourGiB) {
  EXPECT_EQ(MaxSimulationBytes(), std::uint64_t{4} << 30);
}

TEST(SimulationBudgetTest, SimulationBytesIsAmplitudeArraySize) {
  // 2^n amplitudes of std::complex<double> (16 bytes each).
  EXPECT_EQ(SimulationBytes(0), 16u);
  EXPECT_EQ(SimulationBytes(10), 16u * 1024u);
  EXPECT_EQ(SimulationBytes(30), std::uint64_t{16} << 30);
}

TEST(SimulationBudgetTest, CheckRejectsExactlyAtTheBoundary) {
  SetMaxSimulationBytes(SimulationBytes(10));
  struct Restore {
    ~Restore() { SetMaxSimulationBytes(0); }  // 0 restores the default
  } restore;

  EXPECT_TRUE(CheckSimulationBudget(10).ok());  // == budget: allowed
  const Status over = CheckSimulationBudget(11);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.message().find("simulation budget"), std::string::npos);

  // Restoring the default re-admits large registers (up to 28 qubits).
  SetMaxSimulationBytes(0);
  EXPECT_TRUE(CheckSimulationBudget(28).ok());
}

TEST(SimulationBudgetTest, AllocFaultSiteForcesBudgetFailure) {
  resilience::FaultInjector& injector = resilience::FaultInjector::Global();
  ASSERT_TRUE(injector.Configure("alloc:1:1").ok());
  struct Restore {
    ~Restore() { resilience::FaultInjector::Global().Reset(); }
  } restore;

  // Even a trivially small register fails while the alloc site is armed.
  const Status status = CheckSimulationBudget(2);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("injected fault: alloc"),
            std::string::npos);

  injector.Reset();
  EXPECT_TRUE(CheckSimulationBudget(2).ok());
}

}  // namespace
}  // namespace qplex
