/**
 * @file
 * Unit suite for the shared discrete-event kernel
 * (src/engine/event_queue.hh, DESIGN.md §15): the deterministic
 * (cycle, priority, sequence) ordering key, clock/pump semantics
 * (step/runUntil/drain/nextAt/now), and self-scheduling handler
 * chains.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/event_queue.hh"

using namespace maicc;

TEST(EventQueue, OrdersByCycleThenPriorityThenSequence)
{
    EventQueue eq;
    std::vector<std::string> order;
    auto tag = [&](const char *label) {
        return [&order, label](Cycles) { order.push_back(label); };
    };
    // Deliberately scheduled out of key order.
    eq.schedule(5, 0, tag("c5p0"));
    eq.schedule(1, 1, tag("c1p1a"));
    eq.schedule(3, 0, tag("c3p0"));
    eq.schedule(1, 0, tag("c1p0"));
    eq.schedule(1, 1, tag("c1p1b")); // same key: insertion order
    eq.schedule(3, -2, tag("c3pm2")); // priorities may be negative

    EXPECT_EQ(eq.size(), 6u);
    EXPECT_EQ(eq.nextAt(), Cycles(1));
    eq.drain();

    std::vector<std::string> expect{"c1p0", "c1p1a", "c1p1b",
                                    "c3pm2", "c3p0", "c5p0"};
    EXPECT_EQ(order, expect);
    EXPECT_EQ(eq.eventsRun(), 6u);
    EXPECT_EQ(eq.now(), Cycles(5));
}

TEST(EventQueue, EmptyQueueSentinels)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextAt(), EventQueue::kNever);
    EXPECT_EQ(eq.now(), Cycles(0));
    EXPECT_FALSE(eq.step()); // no-op, not a crash
    EXPECT_EQ(eq.drain(), 0u);
    EXPECT_EQ(eq.eventsRun(), 0u);
}

TEST(EventQueue, StepAdvancesTheClockPerEvent)
{
    EventQueue eq;
    eq.schedule(10, 0, [](Cycles t) { EXPECT_EQ(t, Cycles(10)); });
    eq.schedule(40, 0, [](Cycles t) { EXPECT_EQ(t, Cycles(40)); });

    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), Cycles(10));
    EXPECT_EQ(eq.nextAt(), Cycles(40));
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), Cycles(40));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunUntilIsInclusiveAndLeavesLaterEvents)
{
    EventQueue eq;
    int ran = 0;
    for (Cycles c : {5u, 10u, 15u, 20u})
        eq.schedule(c, 0, [&](Cycles) { ++ran; });

    EXPECT_EQ(eq.runUntil(10), 2u); // 5 and 10, not 15
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(eq.nextAt(), Cycles(15));
    EXPECT_EQ(eq.runUntil(14), 0u); // nothing at or before 14
    EXPECT_EQ(eq.drain(), 2u);
}

TEST(EventQueue, HandlersMaySchedule)
{
    // The self-scheduling chain every refitted model uses: each
    // wake-up schedules the next one (arrival streams, DRAM
    // channel re-arming, segment hand-off).
    EventQueue eq;
    std::vector<Cycles> fired;
    std::function<void(Cycles)> chain = [&](Cycles t) {
        fired.push_back(t);
        if (fired.size() < 5)
            eq.schedule(t + 7, 0, chain);
    };
    eq.schedule(3, 0, chain);
    eq.drain();
    EXPECT_EQ(fired,
              (std::vector<Cycles>{3, 10, 17, 24, 31}));
}

TEST(EventQueue, SameCycleInsertionRunsWithinTheCycle)
{
    // An event scheduled *at the executing cycle* still runs in
    // this drain, after the already-queued events of that cycle
    // with an earlier key — this is what lets a completion
    // handler chain zero-latency follow-ups deterministically.
    EventQueue eq;
    std::vector<std::string> order;
    eq.schedule(4, 0, [&](Cycles t) {
        order.push_back("first");
        eq.schedule(t, 0, [&](Cycles) {
            order.push_back("inserted");
        });
    });
    eq.schedule(4, 0, [&](Cycles) { order.push_back("second"); });
    eq.drain();
    EXPECT_EQ(order, (std::vector<std::string>{"first", "second",
                                               "inserted"}));
    EXPECT_EQ(eq.now(), Cycles(4));
}

TEST(EventQueue, ClearDropsPendingButKeepsCounters)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(1, 0, [&](Cycles) { ++ran; });
    eq.schedule(2, 0, [&](Cycles) { ++ran; });
    EXPECT_TRUE(eq.step());
    eq.clear();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.drain(), 0u);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.eventsRun(), 1u);
    EXPECT_EQ(eq.now(), Cycles(1));
}
