// Test-failure forensics: when the VIA_FLIGHT_DUMP environment variable
// names a directory and any test in the binary fails, dump the process-wide
// flight ring (JSONL) and span ring (Chrome trace JSON) there so a
// red chaos/fault run in CI leaves behind the story of what happened.
// Include this header and invoke VIA_REGISTER_FLIGHT_DUMP("binary-stem")
// once at namespace scope; it registers a gtest global environment, so it
// composes with the stock gtest_main.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace via::testsupport {

class FlightDumpEnvironment : public ::testing::Environment {
 public:
  explicit FlightDumpEnvironment(std::string stem) : stem_(std::move(stem)) {}

  void TearDown() override {
    const char* dir = std::getenv("VIA_FLIGHT_DUMP");
    if (dir == nullptr || dir[0] == '\0') return;
    if (::testing::UnitTest::GetInstance()->Passed()) return;
    const std::string base = std::string(dir) + "/" + stem_;
    {
      std::ofstream out(base + ".flight.jsonl");
      obs::FlightRing::process().export_jsonl(out);
    }
    {
      std::ofstream out(base + ".trace.json");
      const auto spans = obs::SpanRing::process().snapshot();
      obs::export_chrome_trace(spans, out);
    }
  }

 private:
  std::string stem_;
};

inline ::testing::Environment* register_flight_dump(std::string stem) {
  return ::testing::AddGlobalTestEnvironment(new FlightDumpEnvironment(std::move(stem)));
}

}  // namespace via::testsupport

#define VIA_REGISTER_FLIGHT_DUMP(stem)                           \
  static ::testing::Environment* const via_flight_dump_env_ = \
      ::via::testsupport::register_flight_dump(stem)
