// Seeded mutation fuzzing of the request parsers that read untrusted bytes:
// obs::JsonValue::Parse and svc::ParseRequestLine. The corpus is the request
// lines of examples/service_batch.jsonl; each input stacks one to three
// mutations (byte flip, truncation, insertion, splice with another line)
// drawn from a fixed seed, so every run replays the same inputs. Every
// input must come back as a value or an error Status, never a crash, and
// every value JSON parsing accepts must dump to text that parses again to
// the same dump. Inputs that once crashed a parser are kept as regression
// cases below.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/json.h"
#include "svc/request.h"

namespace qplex {
namespace {

constexpr std::uint64_t kFuzzSeed = 0x5eedf022;
constexpr int kInputs = 20000;

std::vector<std::string> CorpusLines() {
  std::ifstream in(QPLEX_SERVICE_BATCH);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') {
      lines.push_back(line);
    }
  }
  return lines;
}

/// One random mutation of `text`, in place.
void Mutate(const std::vector<std::string>& corpus, Rng& rng,
            std::string* text) {
  // Inserted bytes are half JSON punctuation and literal letters, which
  // keep more mutants parseable, and half arbitrary bytes.
  static constexpr char kJsonBytes[] = "{}[]\":,-+.0123456789eEtrufalsn\\ ";
  switch (rng.UniformInt(4)) {
    case 0:  // byte flip
      if (!text->empty()) {
        (*text)[rng.UniformInt(text->size())] ^=
            static_cast<char>(1 + rng.UniformInt(255));
      }
      break;
    case 1:  // truncation
      text->resize(rng.UniformInt(text->size() + 1));
      break;
    case 2: {  // insertion
      std::string bytes;
      for (int i = 1 + static_cast<int>(rng.UniformInt(8)); i > 0; --i) {
        bytes.push_back(rng.Bernoulli(0.5)
                            ? kJsonBytes[rng.UniformInt(sizeof(kJsonBytes) - 1)]
                            : static_cast<char>(rng.UniformInt(256)));
      }
      text->insert(rng.UniformInt(text->size() + 1), bytes);
      break;
    }
    default: {  // splice: a prefix of this line, a suffix of another
      const std::string& other = corpus[rng.UniformInt(corpus.size())];
      *text = text->substr(0, rng.UniformInt(text->size() + 1)) +
              other.substr(rng.UniformInt(other.size() + 1));
      break;
    }
  }
}

TEST(ParserFuzzTest, MutatedRequestLinesParseOrFail) {
  const std::vector<std::string> corpus = CorpusLines();
  ASSERT_FALSE(corpus.empty()) << "no request lines in " << QPLEX_SERVICE_BATCH;
  Rng rng(kFuzzSeed);
  int json_values = 0;
  int requests = 0;
  for (int i = 0; i < kInputs; ++i) {
    std::string input = corpus[rng.UniformInt(corpus.size())];
    for (int m = 1 + static_cast<int>(rng.UniformInt(3)); m > 0; --m) {
      Mutate(corpus, rng, &input);
    }
    const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(input);
    if (parsed.ok()) {
      ++json_values;
      const std::string dumped = parsed.value().Dump();
      const Result<obs::JsonValue> again = obs::JsonValue::Parse(dumped);
      ASSERT_TRUE(again.ok()) << "input " << i << ": " << input;
      EXPECT_EQ(again.value().Dump(), dumped) << "input " << i << ": " << input;
    }
    const Result<svc::RequestSpec> request = svc::ParseRequestLine(input, i);
    if (request.ok()) {
      ++requests;
      EXPECT_TRUE(parsed.ok()) << "input " << i << ": " << input;
    }
  }
  // The mutants reach both sides of both parsers.
  std::printf("%d inputs: %d JSON values, %d requests\n", kInputs,
              json_values, requests);
  EXPECT_GT(json_values, kInputs / 20);
  EXPECT_GT(requests, kInputs / 40);
  EXPECT_GT(json_values - requests, kInputs / 100);
}

// Mutants that aborted ParseRequestLine on a type-checked accessor before it
// checked the types of id, k and seed, kept verbatim; and hand-written lines
// for the other fields it now checks.
TEST(ParserFuzzTest, IllTypedRequestFieldsAreErrors) {
  const char* const lines[] = {
      R"({"id":{"n":8,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3],[3,4],[4,5],[4,6],[5,6],[5,7],[6,7]]}})",
      R"({"id":"j12","k":-.2,"backend":"milp","graph":{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[4,0],[0,2]]}})",
      R"({"id":"j01","k":"enum","graph":{"n":8,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3],[3,4],[4,5],[4,6],[5,6],[5,7],[6,7]]}})",
      R"({"id":"j09","k":2,"backend":"hybrid","seed":"pf-2","k":2,"backends":["bs","enum"],"graph":{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[4,0],[0,2]]}})",
      R"({"id":"d","deadline_ms":"5","graph":{"n":1}})",
      R"({"id":"b","backend":["bs"],"graph":{"n":1}})",
      R"({"id":"r","backends":["bs",2],"graph":{"n":1}})",
  };
  for (const char* line : lines) {
    const Result<svc::RequestSpec> request = svc::ParseRequestLine(line, 1);
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

}  // namespace
}  // namespace qplex
