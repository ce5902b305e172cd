#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "graph/instances.h"
#include "grover/engine.h"
#include "grover/full_circuit.h"
#include "oracle/mkp_oracle.h"
#include "quantum/qasm.h"
#include "scratch_dir.h"

namespace qplex {
namespace {

TEST(QasmTest, BasicGates) {
  Circuit circuit;
  circuit.AllocateRegister("q", 3);
  circuit.Append(MakeH(0));
  circuit.Append(MakeX(1));
  circuit.Append(MakeZ(2));
  circuit.Append(MakeCX(0, 1));
  circuit.Append(MakeCCX(0, 1, 2));
  const std::string qasm = ToQasm3(circuit).value();
  EXPECT_NE(qasm.find("OPENQASM 3.0;"), std::string::npos);
  EXPECT_NE(qasm.find("qubit[3] q;"), std::string::npos);
  EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
  EXPECT_NE(qasm.find("x q[1];"), std::string::npos);
  EXPECT_NE(qasm.find("z q[2];"), std::string::npos);
  EXPECT_NE(qasm.find("cx q[0], q[1];"), std::string::npos);
  EXPECT_NE(qasm.find("ccx q[0], q[1], q[2];"), std::string::npos);
}

TEST(QasmTest, NegativeControlsLoweredToXConjugation) {
  Circuit circuit;
  circuit.AllocateRegister("q", 2);
  circuit.Append(MakeMCX({Control{0, false}}, 1));
  const std::string qasm = ToQasm3(circuit).value();
  // x before, cx, x after.
  const auto first_x = qasm.find("x q[0];");
  ASSERT_NE(first_x, std::string::npos);
  const auto cx = qasm.find("cx q[0], q[1];", first_x);
  ASSERT_NE(cx, std::string::npos);
  EXPECT_NE(qasm.find("x q[0];", cx), std::string::npos);
}

TEST(QasmTest, MultiControlledUsesCtrlModifier) {
  Circuit circuit;
  circuit.AllocateRegister("q", 5);
  circuit.Append(MakeMCX({0, 1, 2, 3}, 4));
  circuit.Append(MakeMCZ({0, 1}, 4));
  const std::string qasm = ToQasm3(circuit).value();
  EXPECT_NE(qasm.find("ctrl(4) @ x q[0], q[1], q[2], q[3], q[4];"),
            std::string::npos);
  EXPECT_NE(qasm.find("ctrl(2) @ z q[0], q[1], q[4];"), std::string::npos);
}

TEST(QasmTest, StageCommentsEmitted) {
  Circuit circuit;
  circuit.AllocateRegister("q", 2);
  circuit.Append(MakeX(0));
  circuit.BeginStage("encode");
  circuit.Append(MakeX(1));
  const std::string qasm = ToQasm3(circuit).value();
  EXPECT_NE(qasm.find("// stage: default"), std::string::npos);
  EXPECT_NE(qasm.find("// stage: encode"), std::string::npos);
}

TEST(QasmTest, WriteFile) {
  Circuit circuit;
  circuit.AllocateQubit("q");
  circuit.Append(MakeH(0));
  const std::string path = (ScratchDir() / "test.qasm").string();
  ASSERT_TRUE(WriteQasm3File(circuit, path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "OPENQASM 3.0;");
  std::remove(path.c_str());
  EXPECT_FALSE(WriteQasm3File(circuit, "/nonexistent/dir/x.qasm").ok());
}

// -- full qTKP circuit -------------------------------------------------------

TEST(FullQtkpCircuitTest, StructureAndScaling) {
  const Graph graph = PaperExampleGraph();
  const FullQtkpCircuit one =
      BuildFullQtkpCircuit(graph, 2, 4, 1).value();
  const FullQtkpCircuit six =
      BuildFullQtkpCircuit(graph, 2, 4, 6).value();
  EXPECT_EQ(one.num_vertex_qubits, 6);
  EXPECT_EQ(six.iterations, 6);

  // Six iterations of (oracle + diffusion) plus the shared prologue: the
  // oracle/diffusion gate mass scales 6x.
  const int prologue = 6 + 2;  // H^n + X,H on the oracle qubit
  EXPECT_EQ(six.circuit.num_gates() - prologue,
            6 * (one.circuit.num_gates() - prologue));

  // Prologue is at the very front.
  EXPECT_EQ(six.circuit.gates()[0].kind, GateKind::kH);

  // Diffusion stage present with the C^{n-1}Z reflection.
  bool found_mcz = false;
  for (const Gate& gate : six.circuit.gates()) {
    if (gate.kind == GateKind::kZ && gate.controls.size() == 5) {
      found_mcz = true;
    }
  }
  EXPECT_TRUE(found_mcz);
}

TEST(FullQtkpCircuitTest, Validation) {
  EXPECT_FALSE(BuildFullQtkpCircuit(PaperExampleGraph(), 2, 4, 0).ok());
  EXPECT_FALSE(BuildFullQtkpCircuit(PaperExampleGraph(), 0, 4, 1).ok());
}

TEST(FullQtkpCircuitTest, ExportsToQasm) {
  const Graph graph = PaperExampleGraph();
  const FullQtkpCircuit full = BuildFullQtkpCircuit(graph, 2, 4, 6).value();
  const std::string qasm = ToQasm3(full.circuit).value();
  EXPECT_NE(qasm.find("// stage: encoding"), std::string::npos);
  EXPECT_NE(qasm.find("// stage: diffusion"), std::string::npos);
  EXPECT_NE(qasm.find("// stage: uncompute"), std::string::npos);
  // A real, runnable artifact: hundreds of lines of gates.
  EXPECT_GT(std::count(qasm.begin(), qasm.end(), '\n'), 500);
}

// Rebuilds the paper-example circuit the way examples/export_qasm does (k = 2,
// T = 4, the optimal iteration count for its marked set) and requires the
// export to equal the committed artifact byte for byte.
TEST(FullQtkpCircuitTest, PaperExampleMatchesCommittedQasm) {
  const Graph graph = PaperExampleGraph();
  const MkpOracle oracle = MkpOracle::Build(graph, 2, 4).value();
  const int iterations = OptimalGroverIterations(
      graph.num_vertices(),
      static_cast<std::int64_t>(oracle.MarkedStates().size()));
  ASSERT_EQ(iterations, 6);
  const FullQtkpCircuit full =
      BuildFullQtkpCircuit(graph, 2, 4, iterations).value();

  std::ifstream in(QPLEX_PAPER_EXAMPLE_QASM, std::ios::binary);
  ASSERT_TRUE(in) << QPLEX_PAPER_EXAMPLE_QASM;
  std::ostringstream golden;
  golden << in.rdbuf();
  const std::string qasm = ToQasm3(full.circuit).value();
  ASSERT_EQ(qasm.size(), golden.str().size());
  EXPECT_TRUE(qasm == golden.str());
}

}  // namespace
}  // namespace qplex
