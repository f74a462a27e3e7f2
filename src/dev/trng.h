// True-random-number-generator peripheral (simulated entropy source).
// Mapped secure-only on real platforms; reading DATA pops 32 fresh bits.
//   0x00 DATA  (R) next random word
//   0x04 READS (R) total words served
#pragma once

#include "dev/device.h"
#include "util/rng.h"

namespace cres::dev {

class Trng : public Device {
public:
    Trng(std::string name, std::uint64_t seed)
        : Device(std::move(name)), rng_(seed) {}

    static constexpr mem::Addr kRegData = 0x00;
    static constexpr mem::Addr kRegReads = 0x04;

protected:
    mem::BusResponse read_reg(mem::Addr offset, std::uint32_t& out,
                              const mem::BusAttr& attr) override;
    mem::BusResponse write_reg(mem::Addr offset, std::uint32_t value,
                               const mem::BusAttr& attr) override;

private:
    Rng rng_;
    std::uint32_t reads_ = 0;
};

}  // namespace cres::dev
