/**
 * @file
 * Tests for the telemetry subsystem: metrics registry semantics
 * (handles, snapshot, reset), histogram bucketing and percentiles,
 * tracer span bookkeeping and ring-buffer drops, the JSON sinks
 * (validated by parsing our own output back in), and the crash
 * flush a panicking run relies on.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "telemetry/json.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace.hh"
#include "util/logging.hh"

namespace chameleon {
namespace telemetry {
namespace {

TEST(Metrics, CounterAndGaugeHandlesAreStable)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("repair.chunks");
    c.add();
    c.add(4);
    // Re-resolving yields the same instrument.
    EXPECT_EQ(&reg.counter("repair.chunks"), &c);
    EXPECT_EQ(c.value, 5);

    Gauge &g = reg.gauge("sim.flows.active");
    g.set(3.0);
    g.add(-1.0);
    EXPECT_DOUBLE_EQ(reg.gauge("sim.flows.active").value, 2.0);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, SnapshotCapturesAndFinds)
{
    MetricsRegistry reg;
    reg.counter("a.count").add(7);
    reg.gauge("b.level").set(1.5);
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.samples.size(), 2u);
    const MetricSample *a = snap.find("a.count");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->kind, MetricSample::Kind::kCounter);
    EXPECT_DOUBLE_EQ(a->value, 7.0);
    EXPECT_DOUBLE_EQ(snap.find("b.level")->value, 1.5);
    EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(Metrics, ResetZeroesButKeepsHandles)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("x");
    Histogram &h = reg.histogram("y", {1.0, 2.0});
    c.add(3);
    h.observe(1.5);
    reg.reset();
    EXPECT_EQ(c.value, 0);
    EXPECT_EQ(h.count(), 0);
    EXPECT_EQ(reg.size(), 2u);
    // Handles stay usable after reset.
    c.add();
    EXPECT_EQ(reg.counter("x").value, 1);
}

TEST(Metrics, HistogramBucketing)
{
    Histogram h({10.0, 20.0, 50.0});
    ASSERT_EQ(h.counts().size(), 4u);
    h.observe(5.0);   // bucket 0 (<= 10)
    h.observe(10.0);  // bucket 0 (boundary is inclusive)
    h.observe(15.0);  // bucket 1
    h.observe(49.0);  // bucket 2
    h.observe(1000.0); // overflow
    EXPECT_EQ(h.counts()[0], 2);
    EXPECT_EQ(h.counts()[1], 1);
    EXPECT_EQ(h.counts()[2], 1);
    EXPECT_EQ(h.counts()[3], 1);
    EXPECT_EQ(h.count(), 5);
    EXPECT_DOUBLE_EQ(h.min(), 5.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    EXPECT_NEAR(h.mean(), (5 + 10 + 15 + 49 + 1000) / 5.0, 1e-9);
}

TEST(Metrics, HistogramPercentiles)
{
    Histogram h({1, 2, 5, 10, 20, 50, 100});
    for (int i = 0; i < 90; ++i)
        h.observe(1.5); // bucket (1, 2]
    for (int i = 0; i < 10; ++i)
        h.observe(40.0); // bucket (20, 50]
    // P50 falls in the (1, 2] bucket; P99 in (20, 50].
    double p50 = h.percentile(50.0);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p50, 2.0);
    double p99 = h.percentile(99.0);
    EXPECT_GE(p99, 20.0);
    EXPECT_LE(p99, 50.0);
}

TEST(Tracer, SpanNestingAndOrder)
{
    Tracer tr(64);
    tr.beginRun("test");
    tr.begin(1.0, kTrackScheduler, "repair", "phase");
    tr.begin(2.0, kTrackScheduler, "repair", "inner");
    tr.end(3.0, kTrackScheduler);
    tr.end(4.0, kTrackScheduler);
    tr.instant(5.0, kTrackScheduler, "repair", "dispatch");
    auto evs = tr.events();
    ASSERT_EQ(evs.size(), 5u);
    EXPECT_EQ(evs[0].phase, TraceEvent::Phase::kBegin);
    EXPECT_EQ(evs[0].name, "phase");
    EXPECT_EQ(evs[1].name, "inner");
    EXPECT_EQ(evs[2].phase, TraceEvent::Phase::kEnd);
    EXPECT_EQ(evs[3].phase, TraceEvent::Phase::kEnd);
    EXPECT_EQ(evs[4].phase, TraceEvent::Phase::kInstant);
    for (const auto &ev : evs)
        EXPECT_EQ(ev.tid, kTrackScheduler);
}

TEST(Tracer, RunsGetDistinctPids)
{
    Tracer tr(64);
    int first = tr.beginRun("alpha");
    tr.instant(0.0, kTrackSim, "c", "e");
    int second = tr.beginRun("beta");
    tr.instant(0.0, kTrackSim, "c", "e");
    EXPECT_NE(first, second);
    auto evs = tr.events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].pid, first);
    EXPECT_EQ(evs[1].pid, second);
}

TEST(Tracer, RingDropsOldestWhenFull)
{
    Tracer tr(4);
    tr.beginRun("ring");
    for (int i = 0; i < 10; ++i)
        tr.instant(static_cast<double>(i), kTrackSim, "c", "e",
                   {{"i", i}});
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.dropped(), 6u);
    auto evs = tr.events();
    ASSERT_EQ(evs.size(), 4u);
    // The survivors are the newest events, oldest first.
    EXPECT_DOUBLE_EQ(evs.front().ts, 6.0);
    EXPECT_DOUBLE_EQ(evs.back().ts, 9.0);
}

TEST(Tracer, ChromeTraceIsWellFormedJson)
{
    Tracer tr(64);
    tr.beginRun("ChameleonEC");
    tr.begin(1.0, kTrackScheduler, "repair", "phase",
             {{"index", 0}, {"pending", 3}});
    tr.end(21.0, kTrackScheduler);
    tr.complete(2.0, 3.0, kTrackRepairFlow, "sim.flow", "flow",
                {{"bytes", 1e6}, {"path", "n0.up|n1.down"}});
    tr.instant(4.0, kTrackScheduler, "repair", "straggler",
               {{"node", 7}});
    tr.counter(5.0, kTrackMonitor, "residual.n0",
               {{"up", 50.0}, {"down", 75.0}});

    std::ostringstream os;
    tr.writeChromeTrace(os);
    auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value()) << "invalid JSON: " << os.str();
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    // Metadata (process_name + thread_names) precedes the events.
    bool saw_process = false, saw_flow = false, saw_counter = false;
    for (const auto &ev : events->array) {
        const std::string name = ev.stringOr("name", "");
        const std::string ph = ev.stringOr("ph", "");
        if (name == "process_name") {
            saw_process = true;
            const JsonValue *args = ev.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->stringOr("name", ""), "ChameleonEC");
        }
        if (name == "flow" && ph == "X") {
            saw_flow = true;
            EXPECT_DOUBLE_EQ(ev.numberOr("ts", 0.0), 2e6);
            EXPECT_DOUBLE_EQ(ev.numberOr("dur", 0.0), 3e6);
            EXPECT_EQ(ev.find("args")->stringOr("path", ""),
                      "n0.up|n1.down");
        }
        if (name == "residual.n0" && ph == "C")
            saw_counter = true;
    }
    EXPECT_TRUE(saw_process);
    EXPECT_TRUE(saw_flow);
    EXPECT_TRUE(saw_counter);
}

TEST(Tracer, JsonlLinesEachParse)
{
    Tracer tr(64);
    tr.beginRun("run");
    tr.instant(1.0, kTrackSim, "c", "one", {{"k", "v"}});
    tr.instant(2.0, kTrackSim, "c", "two");
    std::ostringstream os;
    tr.writeJsonl(os);
    std::istringstream in(os.str());
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++lines;
        auto v = parseJson(line);
        ASSERT_TRUE(v.has_value()) << "bad line: " << line;
        EXPECT_TRUE(v->isObject());
    }
    EXPECT_EQ(lines, 2);
}

TEST(Tracer, PhaseCsvSummarizesSpans)
{
    Tracer tr(64);
    tr.beginRun("run");
    tr.begin(0.0, kTrackScheduler, "repair", "phase");
    tr.instant(1.0, kTrackScheduler, "repair", "dispatch");
    tr.instant(2.0, kTrackScheduler, "repair", "dispatch");
    tr.instant(3.0, kTrackScheduler, "repair", "straggler");
    tr.instant(3.5, kTrackScheduler, "repair", "retune");
    tr.end(10.0, kTrackScheduler);
    std::ostringstream os;
    tr.writePhaseCsv(os);
    std::istringstream in(os.str());
    std::string header, row;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header,
              "run,phase,start_s,end_s,duration_s,dispatches,"
              "stragglers,retunes,reorders");
    ASSERT_TRUE(std::getline(in, row));
    EXPECT_NE(row.find(",2,1,1,0"), std::string::npos) << row;
}

TEST(Facade, MetricsSnapshotJsonParses)
{
    MetricsRegistry reg;
    reg.counter("a.b.count").add(3);
    reg.gauge("a.b.level").set(0.25);
    reg.histogram("lat", {1.0, 10.0}).observe(2.0);
    std::ostringstream os;
    reg.snapshot().writeJson(os);
    auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value()) << "invalid JSON: " << os.str();
    ASSERT_TRUE(doc->isObject());
    EXPECT_DOUBLE_EQ(doc->numberOr("a.b.count", 0.0), 3.0);
    EXPECT_DOUBLE_EQ(doc->numberOr("a.b.level", 0.0), 0.25);
    const JsonValue *h = doc->find("lat");
    ASSERT_NE(h, nullptr);
    EXPECT_DOUBLE_EQ(h->numberOr("count", 0.0), 1.0);
}

TEST(Facade, EnableGateControlsTracing)
{
    // The facade tracer only records inside CHAMELEON_TELEM blocks
    // when enabled; flip the gate both ways and observe.
    tracer().clear();
    setEnabled(false);
    CHAMELEON_TELEM(tracer().instant(0.0, kTrackSim, "c", "off"));
    EXPECT_EQ(tracer().size(), 0u);
    setEnabled(true);
    CHAMELEON_TELEM(tracer().instant(0.0, kTrackSim, "c", "on"));
#ifndef CHAMELEON_TELEMETRY_DISABLED
    EXPECT_EQ(tracer().size(), 1u);
#else
    EXPECT_EQ(tracer().size(), 0u);
#endif
    setEnabled(false);
    tracer().clear();
}

TEST(Facade, PanicFlushesTraceOutput)
{
    // setTraceOutput() installs a crash hook: a run that panics still
    // leaves a parseable trace holding what it recorded.
    const std::string path = ::testing::TempDir() + "panic_trace.json";
    std::remove(path.c_str());
    EXPECT_DEATH(
        {
            setTraceOutput(path);
            tracer().instant(1.0, kTrackSim, "test", "before_panic");
            CHAMELEON_PANIC("deliberate panic");
        },
        "deliberate panic");
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no trace at " << path;
    std::stringstream text;
    text << in.rdbuf();
    auto doc = parseJson(text.str());
    ASSERT_TRUE(doc.has_value()) << "invalid JSON: " << text.str();
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool saw = false;
    for (const auto &ev : events->array)
        saw |= ev.stringOr("name", "") == "before_panic";
    EXPECT_TRUE(saw);
}

} // namespace
} // namespace telemetry
} // namespace chameleon
