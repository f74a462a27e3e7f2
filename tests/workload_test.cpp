// Workload, scenario plumbing and secure-boot-path integration tests.
#include <gtest/gtest.h>

#include "attack/attacks.h"
#include "boot/image.h"
#include "platform/scenario.h"
#include "platform/workload.h"

namespace cres::platform {
namespace {

TEST(Workload, ControlLoopAssemblesWithExpectedSymbols) {
    const isa::Program p = control_loop_program();
    EXPECT_EQ(p.origin, kCodeBase);
    for (const char* sym :
         {"start", "loop", "process", "compute", "trap_handler", "delay"}) {
        EXPECT_NO_THROW((void)p.symbol(sym)) << sym;
    }
    EXPECT_GT(p.code.size(), 40u);
}

TEST(Workload, ControlLoopRunsStandalone) {
    NodeConfig config;
    config.resilient = false;
    Node node(config);
    const isa::Program p = control_loop_program();
    node.load_and_start(p);
    // Commands track (setpoint - value) / 4 with value near setpoint.
    // The first iterations run before the sensor's first sample, so
    // only steady-state commands (the fourth on) are bounded.
    while (node.actuator.command_count() < 4 && node.sim.now() < 30000) {
        node.run(50);
    }
    while (node.sim.now() < 30000) {
        EXPECT_LE(std::abs(node.actuator.current()), 5.0)
            << "cycle " << node.sim.now();
        node.run(50);
    }
    EXPECT_GT(node.stats().control_iterations, 10u);
    EXPECT_GT(node.actuator.command_count(), 10u);
}

TEST(Workload, TelemetryCanBeDisabled) {
    NodeConfig config;
    config.resilient = false;
    Node node(config);
    ControlLoopOptions options;
    options.send_telemetry = false;
    node.load_and_start(control_loop_program(options));
    node.run(30000);
    EXPECT_EQ(node.stats().telemetry_frames, 0u);
    EXPECT_GT(node.stats().control_iterations, 10u);
}

TEST(Workload, ConsoleServicePrintsToUart) {
    NodeConfig config;
    config.resilient = false;
    Node node(config);
    const isa::Program p = isa::assemble(R"(
        addi r1, r0, 72     ; 'H'
        ecall 2
        addi r1, r0, 105    ; 'i'
        ecall 2
        halt
    )",
                                         kCodeBase);
    node.load_and_start(p);
    node.run(100);
    EXPECT_EQ(node.uart.output(), "Hi");
}

TEST(Workload, GadgetAssembles) {
    const isa::Program g = exfil_gadget_program(gadget_origin());
    EXPECT_EQ(g.origin, gadget_origin());
    EXPECT_NO_THROW((void)g.symbol("gadget"));
    EXPECT_NO_THROW((void)g.symbol("exfil"));
    EXPECT_NO_THROW((void)g.symbol("spam"));
}

TEST(Workload, ChecksumProgramComputes) {
    NodeConfig config;
    config.resilient = false;
    Node node(config);
    // Plant a known buffer.
    Bytes buffer;
    for (int i = 0; i < 16; ++i) {
        buffer.push_back(static_cast<std::uint8_t>(i + 1));
        buffer.push_back(0);
        buffer.push_back(0);
        buffer.push_back(0);
    }
    node.app_ram.load(kDataBase - kAppRamBase, buffer);
    node.load_and_start(checksum_program(16));
    node.run(2000);
    EXPECT_TRUE(node.cpu.halted());
    EXPECT_EQ(node.cpu.reg(3), 136u);  // 1+2+...+16.
}

TEST(NodeLifecycle, SecureBootPathRunsSignedWorkload) {
    crypto::Hash256 seed{};
    seed.fill(3);
    crypto::MerkleSigner vendor(seed, 3);

    NodeConfig config;
    config.resilient = true;
    Node node(config);
    node.provision(vendor.public_key(), to_bytes("device-root-secret-0001"));

    // Package the control loop as a signed firmware image.
    const isa::Program program = control_loop_program();
    boot::FirmwareImage image;
    image.name = "control-fw";
    image.security_version = 1;
    image.load_addr = program.origin;
    image.entry_point = program.symbol("start");
    image.payload = program.code;
    boot::ImageSigner signer(vendor);
    signer.sign(image);

    const boot::BootReport report = node.secure_boot({image});
    ASSERT_TRUE(report.success) << report.summary();
    EXPECT_EQ(node.pcrs.log().size(), 1u);
    EXPECT_EQ(node.counters.value("fw_version"), 1u);

    node.arm_resilience(program);
    node.run(30000);
    EXPECT_GT(node.stats().control_iterations, 10u);
}

TEST(NodeLifecycle, SecureBootRejectsTamperedImage) {
    crypto::Hash256 seed{};
    seed.fill(4);
    crypto::MerkleSigner vendor(seed, 3);

    NodeConfig config;
    Node node(config);
    node.provision(vendor.public_key(), to_bytes("root"));

    const isa::Program program = control_loop_program();
    boot::FirmwareImage image;
    image.name = "fw";
    image.security_version = 1;
    image.load_addr = program.origin;
    image.entry_point = program.origin;
    image.payload = program.code;
    boot::ImageSigner signer(vendor);
    signer.sign(image);
    image.payload[0] ^= 1;  // Implant.

    const boot::BootReport report = node.secure_boot({image});
    EXPECT_FALSE(report.success);
    EXPECT_TRUE(node.cpu.halted());  // Nothing ran.
}

TEST(NodeLifecycle, RebootReloadsBootChain) {
    crypto::Hash256 seed{};
    seed.fill(5);
    crypto::MerkleSigner vendor(seed, 3);

    NodeConfig config;
    config.reboot_downtime = 1000;
    Node node(config);
    node.provision(vendor.public_key(), to_bytes("root"));

    const isa::Program program = control_loop_program();
    boot::FirmwareImage image;
    image.name = "fw";
    image.security_version = 1;
    image.load_addr = program.origin;
    image.entry_point = program.symbol("start");
    image.payload = program.code;
    boot::ImageSigner signer(vendor);
    signer.sign(image);
    ASSERT_TRUE(node.secure_boot({image}).success);

    node.run(5000);
    const auto before = node.stats().control_iterations;
    node.reboot("test");
    EXPECT_TRUE(node.cpu.halted());
    node.run(2000);  // Past the downtime: re-verified and restarted.
    node.run(8000);
    EXPECT_GT(node.stats().control_iterations, before);
    EXPECT_EQ(node.stats().reboots, 1u);
}

TEST(NodeLifecycle, LoadBelowAppRamRejected) {
    Node node(NodeConfig{});
    const isa::Program bad = isa::assemble("halt\n", 0x100);
    EXPECT_THROW(node.load_and_start(bad), PlatformError);
}

TEST(NodeLifecycle, SecureBootWithoutProvisionRejected) {
    Node node(NodeConfig{});
    EXPECT_THROW((void)node.secure_boot({}), PlatformError);
}

TEST(ScenarioPlumbing, SecretsArePlanted) {
    ScenarioConfig config;
    config.node.resilient = false;
    Scenario scenario(config);
    ASSERT_EQ(scenario.secrets().size(), 2u);
    // The app secret actually sits at kSecretBase.
    const Bytes in_ram = scenario.node().app_ram.dump(
        kSecretBase - kAppRamBase, kSecretSize);
    EXPECT_EQ(in_ram, scenario.secrets()[0]);
}

TEST(ScenarioPlumbing, DistinctSeedsDistinctSecrets) {
    ScenarioConfig a, b;
    a.seed = 1;
    b.seed = 2;
    Scenario sa(a), sb(b);
    EXPECT_NE(sa.secrets()[0], sb.secrets()[0]);
}

TEST(ScenarioPlumbing, CleanRunsAreDeterministic) {
    auto run_once = [] {
        ScenarioConfig config;
        config.node.resilient = true;
        config.warmup = 10000;
        config.horizon = 50000;
        config.seed = 99;
        Scenario scenario(config);
        return scenario.run(nullptr);
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.control_iterations, b.control_iterations);
    EXPECT_EQ(a.telemetry_frames, b.telemetry_frames);
    EXPECT_EQ(a.evidence_records, b.evidence_records);
}

TEST(ScenarioPlumbing, AttackRunsAreDeterministic) {
    auto run_once = [] {
        ScenarioConfig config;
        config.node.resilient = true;
        config.warmup = 10000;
        config.horizon = 60000;
        config.seed = 98;
        Scenario scenario(config);
        attack::StackSmashAttack attack;
        return scenario.run(&attack, 15000);
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.leaked_bytes, b.leaked_bytes);
    EXPECT_EQ(a.detection_latency, b.detection_latency);
    EXPECT_EQ(a.responses_executed, b.responses_executed);
}

}  // namespace
}  // namespace cres::platform
