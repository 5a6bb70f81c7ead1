/// Tests for the engine factory/registry: EngineSpec parsing (valid and
/// invalid strings, option round-trip), make_engine dispatch, and custom
/// engine registration.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "qts/engine.hpp"
#include "qts/statevector_engine.hpp"
#include "qts/workloads.hpp"

namespace qts {
namespace {

TEST(EngineSpec, ParsesBasic) {
  const auto spec = EngineSpec::parse("basic");
  EXPECT_EQ(spec.method, "basic");
  EXPECT_EQ(spec.to_string(), "basic");
}

TEST(EngineSpec, ParsesAdditionWithAndWithoutK) {
  tdd::Manager mgr;
  const auto with_k = EngineSpec::parse("addition:3");
  EXPECT_EQ(with_k.method, "addition");
  EXPECT_EQ(dynamic_cast<AdditionImage&>(*make_engine(mgr, with_k)).k(), 3u);
  EXPECT_EQ(with_k.to_string(), "addition:3");

  const auto defaulted = EngineSpec::parse("addition");
  EXPECT_EQ(dynamic_cast<AdditionImage&>(*make_engine(mgr, defaulted)).k(), 1u);  // default
  EXPECT_EQ(defaulted.to_string(), "addition:1");
}

TEST(EngineSpec, ParsesContraction) {
  tdd::Manager mgr;
  const auto spec = EngineSpec::parse("contraction:3,5");
  EXPECT_EQ(spec.method, "contraction");
  const auto engine = make_engine(mgr, spec);
  EXPECT_EQ(dynamic_cast<ContractionImage&>(*engine).k1(), 3u);
  EXPECT_EQ(dynamic_cast<ContractionImage&>(*engine).k2(), 5u);
  EXPECT_EQ(spec.to_string(), "contraction:3,5");

  const auto defaulted = make_engine(mgr, EngineSpec::parse("contraction"));
  EXPECT_EQ(dynamic_cast<ContractionImage&>(*defaulted).k1(), 4u);
  EXPECT_EQ(dynamic_cast<ContractionImage&>(*defaulted).k2(), 4u);
}

TEST(EngineSpec, TrimsWhitespace) {
  EXPECT_EQ(EngineSpec::parse("  basic ").method, "basic");
}

TEST(EngineSpec, ParsesParallel) {
  const auto bare = EngineSpec::parse("parallel");
  EXPECT_EQ(bare.method, "parallel");
  // 0 threads = hardware concurrency.
  EXPECT_EQ(bare.to_string(), "parallel:0");

  const auto counted = EngineSpec::parse("parallel:8");
  EXPECT_EQ(counted.to_string(), "parallel:8");
}

TEST(EngineSpec, RejectsMalformedParallelSpecs) {
  EXPECT_THROW((void)EngineSpec::parse("parallel:"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("parallel:x"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("parallel:2,"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("parallel:2,basic:1"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("parallel:2,addition:0"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("parallel:2,parallel:2"), InvalidArgument);
  // The workers always run contraction:4,4: any inner spec is refused, and
  // the message names the accepted form.
  for (const char* text : {"parallel:2,basic", "parallel:2,contraction:4,4", "parallel:0,sparse",
                           "parallel:2,statevector"}) {
    try {
      (void)EngineSpec::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("parallel[:t]"), std::string::npos) << e.what();
    }
  }
}

TEST(EngineSpec, RoundTripsThroughToString) {
  for (const char* text : {"basic", "addition:1", "addition:7", "contraction:1,1",
                           "contraction:4,4", "contraction:15,2", "parallel", "parallel:8",
                           "statevector", "statevector:12"}) {
    const auto spec = EngineSpec::parse(text);
    const auto again = EngineSpec::parse(spec.to_string());
    EXPECT_EQ(again.method, spec.method) << text;
    EXPECT_EQ(again.args, spec.args) << text;
    EXPECT_EQ(again.to_string(), spec.to_string()) << text;
  }
}

TEST(EngineSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)EngineSpec::parse(""), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse(":3"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("basic:1"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("addition:"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("addition:x"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("addition:0"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("addition:1,2"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("contraction:1"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("contraction:1,2,3"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("contraction:1,"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("contraction:,2"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("contraction:a,b"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("contraction:0,4"), InvalidArgument);
}

TEST(EngineSpec, RejectsOutOfRangeCounts) {
  // Bounds are checked at parse time: no engine is built, no worker started.
  EXPECT_EQ(EngineSpec::parse("addition:20").to_string(), "addition:20");
  EXPECT_THROW((void)EngineSpec::parse("addition:21"), InvalidArgument);
  EXPECT_EQ(EngineSpec::parse("parallel:256").to_string(), "parallel:256");
  EXPECT_THROW((void)EngineSpec::parse("parallel:257"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("parallel:100000"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("fallback:addition:21;basic"), InvalidArgument);
  // Counts past 32 bits are refused, not truncated to contraction:1,1 or
  // statevector:14.
  EXPECT_THROW((void)EngineSpec::parse("contraction:4294967297,1"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("statevector:4294967310"), InvalidArgument);
}

TEST(MakeEngine, DispatchesToTheRightAlgorithm) {
  tdd::Manager mgr;
  EXPECT_EQ(make_engine(mgr, "basic")->name(), "basic");
  EXPECT_EQ(make_engine(mgr, "addition:2")->name(), "addition");
  EXPECT_EQ(make_engine(mgr, "contraction:2,3")->name(), "contraction");

  const auto add = make_engine(mgr, "addition:5");
  EXPECT_EQ(dynamic_cast<AdditionImage&>(*add).k(), 5u);
  const auto con = make_engine(mgr, "contraction:6,7");
  EXPECT_EQ(dynamic_cast<ContractionImage&>(*con).k1(), 6u);
  EXPECT_EQ(dynamic_cast<ContractionImage&>(*con).k2(), 7u);
}

TEST(EngineSpec, ParsesStatevector) {
  tdd::Manager mgr;
  const auto defaulted = EngineSpec::parse("statevector");
  EXPECT_EQ(defaulted.method, "statevector");
  EXPECT_EQ(dynamic_cast<StatevectorImage&>(*make_engine(mgr, defaulted)).max_qubits(),
            14u);  // kDenseQubitCap
  EXPECT_EQ(defaulted.to_string(), "statevector:14");

  const auto capped = EngineSpec::parse("statevector:12");
  EXPECT_EQ(dynamic_cast<StatevectorImage&>(*make_engine(mgr, capped)).max_qubits(), 12u);
  EXPECT_EQ(capped.to_string(), "statevector:12");  // registry round-trip

  EXPECT_THROW((void)EngineSpec::parse("statevector:"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("statevector:x"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("statevector:0"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("statevector:31"), InvalidArgument);
}

TEST(MakeEngine, RejectsUnknownMethods) {
  tdd::Manager mgr;
  EXPECT_THROW((void)make_engine(mgr, "frobnicate"), InvalidArgument);
}

TEST(MakeEngine, BuildsTheStatevectorEngine) {
  // Flipped from the pre-seam EXPECT_THROW: the statevector backend is now a
  // registered engine like any other.
  tdd::Manager mgr;
  const auto engine = make_engine(mgr, "statevector");
  EXPECT_EQ(engine->name(), "statevector");
  EXPECT_EQ(dynamic_cast<StatevectorImage&>(*engine).max_qubits(), 14u);
  EXPECT_EQ(dynamic_cast<StatevectorImage&>(*make_engine(mgr, "statevector:9")).max_qubits(),
            9u);
}

TEST(MakeEngine, BuiltinsAreRegistered) {
  const auto names = registered_engines();
  EXPECT_NE(std::find(names.begin(), names.end(), "basic"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "addition"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "contraction"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "parallel"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "statevector"), names.end());
}

TEST(MakeEngine, RejectsUnknownParallelInnerEngine) {
  // The parallel engine takes no inner engine, known or not.
  tdd::Manager mgr;
  EXPECT_THROW((void)make_engine(mgr, "parallel:2,frobnicate"), InvalidArgument);
}

TEST(MakeEngine, SharesAnExternalContext) {
  ExecutionContext ctx;
  tdd::Manager mgr;
  const auto sys = make_ghz_system(mgr, 3);
  const auto engine = make_engine(mgr, "contraction:2,2", &ctx);
  ASSERT_EQ(&engine->context(), &ctx);
  (void)engine->image(sys, sys.initial);
  EXPECT_GT(ctx.stats().peak_nodes, 0u);
  EXPECT_GT(ctx.stats().kraus_applications, 0u);
}

TEST(MakeEngine, CustomEnginesPlugIn) {
  // A later PR's backend only has to register a factory; every spec-driven
  // call site picks it up.
  register_engine("custom-basic",
                  [](tdd::Manager& mgr, const EngineSpec&, ExecutionContext* ctx) {
                    return std::make_unique<BasicImage>(mgr, ctx);
                  });
  tdd::Manager mgr;
  const auto spec = EngineSpec::parse("custom-basic:whatever,args");
  EXPECT_EQ(spec.args, "whatever,args");
  EXPECT_EQ(spec.to_string(), "custom-basic:whatever,args");
  EXPECT_EQ(make_engine(mgr, spec)->name(), "basic");
}

TEST(MakeEngine, AllEnginesAgreeOnGhzImage) {
  for (const char* spec : {"basic", "addition:1", "addition:2", "contraction:2,2",
                           "parallel:2", "statevector", "fallback:statevector:2;parallel:2"}) {
    tdd::Manager mgr;
    const auto sys = make_ghz_system(mgr, 4);
    const auto engine = make_engine(mgr, spec);
    const Subspace img = engine->image(sys, sys.initial);
    EXPECT_EQ(img.dim(), 1u) << spec;
  }
}

}  // namespace
}  // namespace qts
