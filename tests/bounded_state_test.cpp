// Bounded node state: once warmed up, a node's live heap does not grow
// with simulated time. Sealed evidence is the only history a node may
// grow, and the nodes here seal nothing while they are measured.
//
// This binary overrides global operator new/delete to track live heap
// bytes, so it is deliberately separate from the other test
// executables.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "platform/node.h"
#include "platform/workload.h"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

void* tracked_alloc(std::size_t size) {
    void* p = std::malloc(size ? size : 1);
    if (p == nullptr) throw std::bad_alloc();
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    return p;
}

void tracked_free(void* p) noexcept {
    if (p == nullptr) return;
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return tracked_alloc(size); }
void* operator new[](std::size_t size) { return tracked_alloc(size); }

// GCC pairs the inlined std::free here with the *library* operator
// new at some call sites and warns; the replacement new above also
// allocates with malloc, so the pairing is in fact correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }
#pragma GCC diagnostic pop

namespace cres::platform {
namespace {

constexpr sim::Cycle kWarmup = 40000;
constexpr sim::Cycle kMeasured = 400000;

/// Warms the node up, then returns the live heap bytes it gains over
/// kMeasured more cycles.
std::int64_t growth_after_warmup(Node& node) {
    node.run(kWarmup);
    const std::uint64_t iterations = node.stats().control_iterations;
    const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
    node.run(kMeasured);
    const std::int64_t after = g_live_bytes.load(std::memory_order_relaxed);
    EXPECT_GT(node.stats().control_iterations, iterations + 100);
    return after - before;
}

NodeConfig passive_config() {
    NodeConfig config;
    config.resilient = false;
    config.flight_recorder_capacity = 0;
    return config;
}

TEST(BoundedState, PassiveWfiNodeHeapIsFlat) {
    Node node(passive_config());
    node.load_and_start(interrupt_control_loop_program());
    EXPECT_EQ(growth_after_warmup(node), 0);
}

TEST(BoundedState, PassiveBusyNodeHeapIsFlat) {
    Node node(passive_config());
    node.load_and_start(control_loop_program());
    EXPECT_EQ(growth_after_warmup(node), 0);
}

TEST(BoundedState, ResilientBusyNodeHeapIsFlat) {
    NodeConfig config;
    config.resilient = true;
    Node node(config);
    crypto::Hash256 seed{};
    seed.fill(19);
    const crypto::MerkleSigner vendor(seed, 2);
    node.provision(vendor.public_key(), to_bytes("device-root-bounded"));
    const isa::Program program = control_loop_program();
    node.load_and_start(program);
    node.arm_resilience(program);
    const std::size_t sealed = node.ssm->evidence().size();

    EXPECT_EQ(growth_after_warmup(node), 0);
    EXPECT_EQ(node.ssm->evidence().size(), sealed);  // A clean run.
}

}  // namespace
}  // namespace cres::platform
