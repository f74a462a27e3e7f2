// Peripheral tests: UART, timer, watchdog, DMA, sensor, actuator,
// NIC/link (incl. MITM tap), TRNG, power sensor.
#include <gtest/gtest.h>

#include "dev/actuator.h"
#include "dev/dma.h"
#include "dev/nic.h"
#include "dev/power.h"
#include "dev/sensor.h"
#include "dev/timer.h"
#include "dev/trng.h"
#include "dev/uart.h"
#include "dev/watchdog.h"
#include "mem/ram.h"
#include "util/error.h"

namespace cres::dev {
namespace {

const mem::BusAttr kCpuAttr{mem::Master::kCpu, false, true};

std::uint32_t read_reg(Device& dev, mem::Addr offset) {
    std::uint32_t out = 0;
    EXPECT_EQ(dev.read(offset, 4, out, kCpuAttr), mem::BusResponse::kOk);
    return out;
}

void write_reg(Device& dev, mem::Addr offset, std::uint32_t value) {
    EXPECT_EQ(dev.write(offset, 4, value, kCpuAttr), mem::BusResponse::kOk);
}

TEST(Device, RejectsUnalignedAccessAllowsNarrow) {
    Uart uart("u");
    std::uint32_t out = 0;
    EXPECT_EQ(uart.read(1, 4, out, kCpuAttr), mem::BusResponse::kDeviceError);
    // Sub-word access at a register base is allowed (DMA byte streams).
    EXPECT_EQ(uart.read(4, 1, out, kCpuAttr), mem::BusResponse::kOk);
    EXPECT_EQ(out, 1u);  // STATUS.tx_ready in the low byte.
}

TEST(Uart, TransmitCollectsOutput) {
    Uart uart("u");
    for (char c : std::string("hi")) {
        write_reg(uart, Uart::kRegTxData, static_cast<std::uint8_t>(c));
    }
    EXPECT_EQ(uart.output(), "hi");
    uart.clear_output();
    EXPECT_TRUE(uart.output().empty());
}

TEST(Uart, ReceivePath) {
    Uart uart("u");
    EXPECT_EQ(read_reg(uart, Uart::kRegStatus) & 2u, 0u);
    uart.inject_input("ok");
    EXPECT_EQ(read_reg(uart, Uart::kRegStatus) & 2u, 2u);
    EXPECT_EQ(read_reg(uart, Uart::kRegRxData), 'o');
    EXPECT_EQ(read_reg(uart, Uart::kRegRxData), 'k');
    EXPECT_EQ(read_reg(uart, Uart::kRegRxData), 0u);  // Empty.
}

TEST(Uart, RxRaisesIrq) {
    Uart uart("u");
    unsigned raised = 99;
    uart.connect_irq([&](unsigned line) { raised = line; }, 5);
    uart.inject_input("x");
    EXPECT_EQ(raised, 5u);
}

TEST(Timer, MatchRaisesIrqAndReloads) {
    Timer timer("t");
    int irqs = 0;
    timer.connect_irq([&](unsigned) { ++irqs; }, 1);
    timer.configure(3, /*auto_reload=*/true);
    for (int i = 0; i < 9; ++i) timer.tick(static_cast<sim::Cycle>(i));
    EXPECT_EQ(irqs, 3);
    EXPECT_EQ(timer.matches(), 3u);
}

TEST(Timer, DisabledDoesNotCount) {
    Timer timer("t");
    for (int i = 0; i < 10; ++i) timer.tick(static_cast<sim::Cycle>(i));
    EXPECT_EQ(read_reg(timer, Timer::kRegCount), 0u);
}

TEST(Timer, OneShotWithoutReload) {
    Timer timer("t");
    timer.configure(2, /*auto_reload=*/false);
    for (int i = 0; i < 10; ++i) timer.tick(static_cast<sim::Cycle>(i));
    EXPECT_EQ(timer.matches(), 1u);
}

TEST(Timer, GuestVisibleRegisters) {
    Timer timer("t");
    write_reg(timer, Timer::kRegCompare, 5);
    write_reg(timer, Timer::kRegCtrl, Timer::kCtrlEnable);
    for (int i = 0; i < 4; ++i) timer.tick(static_cast<sim::Cycle>(i));
    EXPECT_EQ(read_reg(timer, Timer::kRegCount), 4u);
    EXPECT_EQ(read_reg(timer, Timer::kRegCompare), 5u);
}

TEST(Watchdog, ExpiresWithoutKick) {
    Watchdog wd("w");
    int expiries = 0;
    wd.set_expiry_callback([&] { ++expiries; });
    wd.arm(5);
    for (int i = 0; i < 5; ++i) wd.tick(static_cast<sim::Cycle>(i));
    EXPECT_EQ(expiries, 1);
    EXPECT_EQ(wd.expiries(), 1u);
}

TEST(Watchdog, KickPreventsExpiry) {
    Watchdog wd("w");
    wd.arm(5);
    for (int i = 0; i < 20; ++i) {
        wd.tick(static_cast<sim::Cycle>(i));
        if (i % 3 == 0) wd.kick();
    }
    EXPECT_EQ(wd.expiries(), 0u);
}

TEST(Watchdog, GuestKickViaRegister) {
    Watchdog wd("w");
    wd.arm(4);
    for (int i = 0; i < 3; ++i) wd.tick(static_cast<sim::Cycle>(i));
    write_reg(wd, Watchdog::kRegKick, 1);
    for (int i = 0; i < 3; ++i) wd.tick(static_cast<sim::Cycle>(i));
    EXPECT_EQ(wd.expiries(), 0u);
}

TEST(Watchdog, RearmsAfterExpiry) {
    Watchdog wd("w");
    wd.arm(3);
    for (int i = 0; i < 9; ++i) wd.tick(static_cast<sim::Cycle>(i));
    EXPECT_EQ(wd.expiries(), 3u);
}

class DmaFixture : public ::testing::Test {
protected:
    DmaFixture() : ram("ram", 0x1000), secret("secret", 0x100),
                   dma("dma0", bus) {
        bus.map(mem::RegionConfig{"ram", 0x0, 0x1000, false, false}, ram);
        bus.map(mem::RegionConfig{"secret", 0x8000, 0x100, true, false},
                secret);
        ram.load(0, Bytes{1, 2, 3, 4, 5, 6, 7, 8});
        secret.load(0, Bytes{0xaa, 0xbb, 0xcc, 0xdd});
    }
    mem::Bus bus;
    mem::Ram ram;
    mem::Ram secret;
    DmaEngine dma;
};

TEST_F(DmaFixture, CopiesWithinOpenMemory) {
    dma.start_transfer(0x0, 0x100, 8);
    for (int i = 0; i < 10 && dma.busy(); ++i) {
        dma.tick(static_cast<sim::Cycle>(i));
    }
    EXPECT_FALSE(dma.busy());
    EXPECT_EQ(dma.status() & DmaEngine::kStatusDone, DmaEngine::kStatusDone);
    EXPECT_EQ(ram.dump(0x100, 8), (Bytes{1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_EQ(dma.bytes_transferred(), 8u);
    EXPECT_EQ(dma.transfers_completed(), 1u);
}

TEST_F(DmaFixture, NonSecureTransferFromSecureRegionErrors) {
    dma.start_transfer(0x8000, 0x200, 4, /*secure=*/false);
    for (int i = 0; i < 10 && dma.busy(); ++i) {
        dma.tick(static_cast<sim::Cycle>(i));
    }
    EXPECT_EQ(dma.status() & DmaEngine::kStatusError, DmaEngine::kStatusError);
    EXPECT_EQ(ram.dump(0x200, 4), (Bytes{0, 0, 0, 0}));
}

TEST_F(DmaFixture, SecureTransferSucceeds) {
    dma.start_transfer(0x8000, 0x200, 4, /*secure=*/true);
    for (int i = 0; i < 10 && dma.busy(); ++i) {
        dma.tick(static_cast<sim::Cycle>(i));
    }
    EXPECT_EQ(ram.dump(0x200, 4), (Bytes{0xaa, 0xbb, 0xcc, 0xdd}));
}

TEST_F(DmaFixture, GuestProgrammingViaRegisters) {
    write_reg(dma, DmaEngine::kRegSrc, 0x0);
    write_reg(dma, DmaEngine::kRegDst, 0x300);
    write_reg(dma, DmaEngine::kRegLen, 4);
    write_reg(dma, DmaEngine::kRegCtrl, DmaEngine::kCtrlStart);
    EXPECT_TRUE(dma.busy());
    dma.tick(0);
    EXPECT_EQ(ram.dump(0x300, 4), (Bytes{1, 2, 3, 4}));
}

TEST_F(DmaFixture, UnprivilegedCannotClaimSecure) {
    const mem::BusAttr user{mem::Master::kCpu, false, false};
    std::uint32_t v = 0x8000;
    (void)dma.write(DmaEngine::kRegSrc, 4, v, user);
    v = 0x200;
    (void)dma.write(DmaEngine::kRegDst, 4, v, user);
    v = 4;
    (void)dma.write(DmaEngine::kRegLen, 4, v, user);
    v = DmaEngine::kCtrlStart | DmaEngine::kCtrlClaimSecure;
    (void)dma.write(DmaEngine::kRegCtrl, 4, v, user);
    for (int i = 0; i < 10 && dma.busy(); ++i) {
        dma.tick(static_cast<sim::Cycle>(i));
    }
    // Secure claim ignored for unprivileged master -> transfer faults.
    EXPECT_EQ(dma.status() & DmaEngine::kStatusError, DmaEngine::kStatusError);
}

TEST_F(DmaFixture, CompletionIrq) {
    int irqs = 0;
    dma.connect_irq([&](unsigned) { ++irqs; }, 3);
    dma.start_transfer(0, 0x100, 4);
    for (int i = 0; i < 5; ++i) dma.tick(static_cast<sim::Cycle>(i));
    EXPECT_EQ(irqs, 1);
}

TEST(FixedPoint, RoundTrip) {
    EXPECT_DOUBLE_EQ(from_fixed(to_fixed(1.5)), 1.5);
    EXPECT_DOUBLE_EQ(from_fixed(to_fixed(-2.25)), -2.25);
    EXPECT_NEAR(from_fixed(to_fixed(3.14159)), 3.14159, 1e-4);
}

TEST(Sensor, SamplesSignalAtPeriod) {
    sim::Simulator sim;
    Sensor sensor("s", sim,
                  [](sim::Cycle c) { return static_cast<double>(c); }, 10);
    sim.run_for(25);
    EXPECT_EQ(sensor.samples(), 2u);
    EXPECT_NEAR(sensor.value(), 19.0, 1e-3);  // Sampled at c==19.
}

TEST(Sensor, SpoofOverridesSignal) {
    sim::Simulator sim;
    Sensor sensor("s", sim, [](sim::Cycle) { return 5.0; }, 1);
    sim.run_for(1);
    EXPECT_NEAR(sensor.value(), 5.0, 1e-3);
    sensor.set_spoof([](sim::Cycle) { return 99.0; });
    sim.run_for(1);
    EXPECT_NEAR(sensor.value(), 99.0, 1e-3);
    EXPECT_NEAR(sensor.truth(1), 5.0, 1e-3);  // Physical truth unchanged.
    sensor.clear_spoof();
    sim.run_for(1);
    EXPECT_NEAR(sensor.value(), 5.0, 1e-3);
}

TEST(Sensor, GuestReadsFixedPoint) {
    sim::Simulator sim;
    Sensor sensor("s", sim, [](sim::Cycle) { return -1.5; }, 1);
    sim.run_for(1);
    const auto raw = static_cast<std::int32_t>(read_reg(sensor,
                                                        Sensor::kRegData));
    EXPECT_NEAR(from_fixed(raw), -1.5, 1e-3);
}

TEST(Sensor, RejectsBadConstruction) {
    sim::Simulator sim;
    EXPECT_THROW(Sensor("s", sim, nullptr, 1), Error);
    EXPECT_THROW(Sensor("s", sim, [](sim::Cycle) { return 0.0; }, 0), Error);
}

TEST(Actuator, RecordsAndClampsCommands) {
    Actuator act("a", -10.0, 10.0);
    write_reg(act, Actuator::kRegCommand,
              static_cast<std::uint32_t>(to_fixed(5.0)));
    EXPECT_DOUBLE_EQ(act.current(), 5.0);
    EXPECT_EQ(act.unsafe_commands(), 0u);
    write_reg(act, Actuator::kRegCommand,
              static_cast<std::uint32_t>(to_fixed(50.0)));  // Clamped.
    EXPECT_DOUBLE_EQ(act.current(), 10.0);
    EXPECT_EQ(act.unsafe_commands(), 1u);
    EXPECT_EQ(act.command_count(), 2u);
    EXPECT_EQ(read_reg(act, Actuator::kRegCount), 2u);
    EXPECT_DOUBLE_EQ(act.total_travel(), 10.0);  // 0->5->10.

    // Within the physical range but beyond the rated band: unsafe.
    Actuator wide("w", -100.0, 100.0);
    write_reg(wide, Actuator::kRegCommand,
              static_cast<std::uint32_t>(to_fixed(-60.0)));
    EXPECT_DOUBLE_EQ(wide.current(), -60.0);
    EXPECT_EQ(wide.unsafe_commands(), 1u);
}

TEST(Actuator, RejectsInvertedRange) {
    EXPECT_THROW(Actuator("a", 1.0, -1.0), Error);
}

TEST(NicLink, FrameRoundTrip) {
    Nic a("nicA"), b("nicB");
    Link link;
    link.attach(a, b);

    a.send_frame(Bytes{1, 2, 3});
    ASSERT_EQ(b.pending_frames(), 1u);
    const auto frame = b.receive_frame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(*frame, (Bytes{1, 2, 3}));
    EXPECT_FALSE(b.receive_frame().has_value());
    EXPECT_EQ(link.frames_carried(), 1u);
}

TEST(NicLink, TapCanModifyAndDrop) {
    Nic a("nicA"), b("nicB");
    Link link;
    link.attach(a, b);
    int seen = 0;
    link.set_tap([&](const Bytes& frame, bool from_a) -> std::optional<Bytes> {
        ++seen;
        EXPECT_TRUE(from_a);
        if (frame[0] == 0xff) return std::nullopt;  // Drop.
        Bytes modified = frame;
        modified[0] ^= 0x80;
        return modified;
    });

    a.send_frame(Bytes{0x01});
    a.send_frame(Bytes{0xff});
    EXPECT_EQ(seen, 2);
    ASSERT_EQ(b.pending_frames(), 1u);
    EXPECT_EQ((*b.receive_frame())[0], 0x81);
    EXPECT_EQ(link.frames_dropped(), 1u);
}

TEST(NicLink, InjectionForgesFrames) {
    Nic a("nicA"), b("nicB");
    Link link;
    link.attach(a, b);
    link.inject(Bytes{9, 9}, /*to_a=*/true);
    ASSERT_EQ(a.pending_frames(), 1u);
    EXPECT_EQ(*a.receive_frame(), (Bytes{9, 9}));
}

TEST(NicLink, GuestRegisterInterface) {
    Nic a("nicA"), b("nicB");
    Link link;
    link.attach(a, b);

    write_reg(a, Nic::kRegTxByte, 'h');
    write_reg(a, Nic::kRegTxByte, 'i');
    write_reg(a, Nic::kRegTxSend, 1);

    EXPECT_EQ(read_reg(b, Nic::kRegRxPending), 1u);
    EXPECT_EQ(read_reg(b, Nic::kRegRxAvail), 2u);
    EXPECT_EQ(read_reg(b, Nic::kRegRxByte), 'h');
    EXPECT_EQ(read_reg(b, Nic::kRegRxByte), 'i');
    EXPECT_EQ(read_reg(b, Nic::kRegRxAvail), 0u);
    write_reg(b, Nic::kRegRxNext, 1);
    EXPECT_EQ(read_reg(b, Nic::kRegRxPending), 0u);
}

// Frames leave the receive queue in arrival order through both the
// host API and the register interface, and moving to the next frame
// restarts the byte offset.
TEST(NicLink, QueuedFramesLeaveInArrivalOrder) {
    Nic a("nicA"), b("nicB");
    Link link;
    link.attach(a, b);

    for (std::uint8_t i = 1; i <= 3; ++i) a.send_frame(Bytes{i, 0x10});
    for (std::uint8_t i = 1; i <= 3; ++i) {
        EXPECT_EQ(b.pending_frames(), 4u - i);
        const auto frame = b.receive_frame();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(*frame, (Bytes{i, 0x10}));
    }
    EXPECT_EQ(b.pending_frames(), 0u);

    for (std::uint8_t i = 1; i <= 3; ++i) a.send_frame(Bytes{i, 0x20, i});
    EXPECT_EQ(read_reg(b, Nic::kRegRxByte), 1u);  // Half-read frame 1.
    write_reg(b, Nic::kRegRxNext, 1);
    EXPECT_EQ(read_reg(b, Nic::kRegRxPending), 2u);
    EXPECT_EQ(read_reg(b, Nic::kRegRxAvail), 3u);
    EXPECT_EQ(read_reg(b, Nic::kRegRxByte), 2u);
    EXPECT_EQ(read_reg(b, Nic::kRegRxByte), 0x20u);
    write_reg(b, Nic::kRegRxNext, 1);
    EXPECT_EQ(read_reg(b, Nic::kRegRxPending), 1u);
    EXPECT_EQ(read_reg(b, Nic::kRegRxByte), 3u);
    EXPECT_EQ(read_reg(b, Nic::kRegRxByte), 0x20u);
    EXPECT_EQ(read_reg(b, Nic::kRegRxByte), 3u);
    EXPECT_EQ(read_reg(b, Nic::kRegRxAvail), 0u);
    write_reg(b, Nic::kRegRxNext, 1);
    EXPECT_EQ(read_reg(b, Nic::kRegRxPending), 0u);
    EXPECT_EQ(read_reg(b, Nic::kRegRxByte), 0u);  // Empty queue reads 0.
}

TEST(NicLink, DoubleAttachRejected) {
    Nic a("a"), b("b"), c("c");
    Link link;
    link.attach(a, b);
    EXPECT_THROW(link.attach(a, c), NetError);
}

TEST(NicLink, UnboundSendRejected) {
    Nic a("a");
    EXPECT_THROW(a.send_frame(Bytes{1}), NetError);
}

TEST(Trng, ProducesVaryingWords) {
    Trng trng("trng", 42);
    const auto a = read_reg(trng, Trng::kRegData);
    const auto b = read_reg(trng, Trng::kRegData);
    EXPECT_NE(a, b);
    EXPECT_EQ(read_reg(trng, Trng::kRegReads), 2u);
    std::uint32_t io = 0;
    EXPECT_EQ(trng.write(Trng::kRegData, 4, io, kCpuAttr),
              mem::BusResponse::kReadOnly);
}

TEST(PowerSensor, NominalReadings) {
    sim::Simulator sim;
    PowerSensor ps("pwr", sim, 3.3, 45.0);
    EXPECT_NEAR(from_fixed(static_cast<std::int32_t>(
                    read_reg(ps, PowerSensor::kRegVoltage))),
                3.3, 1e-3);
    EXPECT_NEAR(from_fixed(static_cast<std::int32_t>(
                    read_reg(ps, PowerSensor::kRegTemp))),
                45.0, 1e-3);
}

TEST(PowerSensor, GlitchIsTransient) {
    sim::Simulator sim;
    PowerSensor ps("pwr", sim, 3.3, 45.0);
    ps.inject_glitch(1.1, 3);
    EXPECT_TRUE(ps.glitch_active());
    EXPECT_NEAR(ps.voltage(), 1.1, 1e-9);
    sim.run_for(2);
    EXPECT_TRUE(ps.glitch_active());  // Cycle 2 is the glitch's last.
    sim.run_for(1);
    EXPECT_FALSE(ps.glitch_active());
    EXPECT_NEAR(ps.voltage(), 3.3, 1e-9);
}

}  // namespace
}  // namespace cres::dev
