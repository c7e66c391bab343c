/**
 * @file
 * Reusable AXI-Lite bus-functional models for the testbench
 * subsystem, replacing the ad-hoc inline callback drivers the AXI
 * benches used to duplicate.
 *
 * Both agents follow the `<prefix>_<ch>_{data,valid,ack}` port naming
 * of the compiled designs and the AXI-Lite baselines (channels aw, w,
 * b, ar, r) and are *contract-clean*: once an agent offers a send it
 * holds valid asserted and the payload stable until the ack arrives,
 * so runs they drive are healthy under the timing-contract monitors
 * (trace/contracts.h).
 *
 * AxiMasterBfm issues write and read transactions — scripted through
 * queueWrite/queueRead, or constrained-random traffic generated from
 * the bench's seeded PRNG — and applies randomized back-pressure on
 * the B and R response channels.  AxiLiteSlaveBfm acks request
 * channels with configurable duty cycles and answers with B/R
 * responses (random payloads by default, or a user hook for a memory
 * model).
 *
 * Each agent is a tb::Driver plus a check hook: inputs are driven at
 * the top of the cycle, handshake fires are observed on the settled
 * combinational frame, and the transaction FSM advances for the next
 * cycle.
 */

#ifndef ANVIL_TB_AXI_BFM_H
#define ANVIL_TB_AXI_BFM_H

#include <deque>
#include <functional>
#include <string>

#include "tb/testbench.h"

namespace anvil {
namespace tb {

/** Resolved port names of one valid/data/ack channel. */
struct AxiChannelPorts
{
    std::string valid, data, ack;

    AxiChannelPorts() = default;
    AxiChannelPorts(const std::string &prefix,
                    const std::string &ch)
        : valid(prefix + "_" + ch + "_valid"),
          data(prefix + "_" + ch + "_data"),
          ack(prefix + "_" + ch + "_ack")
    {
    }
};

/** Knobs of one AXI-Lite master agent. */
struct AxiMasterConfig
{
    std::string prefix = "m";
    int addr_bits = 32;
    int data_bits = 32;
    /** Chance (percent) to launch a random write/read when idle. */
    int start_write_pct = 60;
    int start_read_pct = 50;
    /** Response-channel readiness duty cycles (back-pressure). */
    int b_ack_pct = 70;
    int r_ack_pct = 70;
    /** Generate random transactions whenever the queues run dry. */
    bool random_traffic = true;
    /**
     * Watchdog: a transaction outstanding this many cycles is
     * reported as a testbench failure (once per transaction) — a
     * hung handshake would otherwise pass silently.  0 disables.
     */
    uint64_t timeout = 256;
};

class AxiMasterBfm : public Driver
{
  public:
    /** Create, register with the bench, and return the agent.
     *  Throws std::invalid_argument if an input it drives is
     *  missing from the design. */
    static AxiMasterBfm &attach(Testbench &bench,
                                AxiMasterConfig cfg = {});

    /** Queue a scripted write (takes precedence over random). */
    void queueWrite(uint64_t addr, uint64_t data);

    /** Queue a scripted read; on_resp sees the R payload. */
    void queueRead(uint64_t addr,
                   std::function<void(const BitVec &)> on_resp = {});

    uint64_t writesDone() const { return _writes_done; }
    uint64_t readsDone() const { return _reads_done; }

    /** No transaction in flight and nothing queued. */
    bool idle() const;

    void drive(rtl::Sim &sim, uint64_t cycle,
               SplitMix64 &rng) override;

  private:
    AxiMasterBfm(Testbench &bench, AxiMasterConfig cfg);

    void observe(Testbench &bench);

    AxiMasterConfig _cfg;
    AxiChannelPorts _paw, _pw, _pb, _par, _pr;
    /** The inputs this agent drives, resolved once at attach. */
    rtl::NetId _aw_valid, _aw_data, _w_valid, _w_data, _b_ack_in,
        _ar_valid, _ar_data, _r_ack_in;

    enum class WState { Idle, Req, Resp };
    WState _wstate = WState::Idle;
    bool _aw_done = false, _w_done = false;
    BitVec _aw{1}, _w{1};
    std::deque<std::pair<uint64_t, uint64_t>> _write_queue;
    uint64_t _writes_done = 0;
    uint64_t _w_start = 0;
    bool _w_hang_reported = false;

    enum class RState { Idle, Req, Resp };
    RState _rstate = RState::Idle;
    BitVec _ar{1};
    uint64_t _r_start = 0;
    bool _r_hang_reported = false;
    std::deque<std::pair<uint64_t,
                         std::function<void(const BitVec &)>>>
        _read_queue;
    std::function<void(const BitVec &)> _on_read;
    uint64_t _reads_done = 0;

    bool _b_ack = false, _r_ack = false;
};

/** Knobs of one AXI-Lite slave agent. */
struct AxiSlaveConfig
{
    std::string prefix = "s0";
    /** Request-channel readiness duty cycles. */
    int aw_ack_pct = 80;
    int w_ack_pct = 80;
    int ar_ack_pct = 80;
    /** Chance per cycle to start presenting a prepared response. */
    int resp_pct = 60;
    int b_bits = 2;
    int r_bits = 33;
    /**
     * Write acceptance rule.  The baseline routers hold AW and W
     * valid together and need both acked in the same cycle (joint);
     * Anvil-compiled designs complete each channel's handshake
     * independently, possibly on different cycles.
     */
    bool joint_write_accept = true;
    /** B payload for an accepted write; default: random. */
    std::function<uint64_t(uint64_t addr, uint64_t data)> write_resp;
    /** R payload for an accepted read; default: random. */
    std::function<uint64_t(uint64_t addr)> read_resp;
};

class AxiLiteSlaveBfm : public Driver
{
  public:
    /** Create, register with the bench, and return the agent.
     *  Throws std::invalid_argument if an input it drives is
     *  missing from the design. */
    static AxiLiteSlaveBfm &attach(Testbench &bench,
                                   AxiSlaveConfig cfg = {});

    uint64_t writesAccepted() const { return _writes_accepted; }
    uint64_t readsAccepted() const { return _reads_accepted; }

    void drive(rtl::Sim &sim, uint64_t cycle,
               SplitMix64 &rng) override;

  private:
    AxiLiteSlaveBfm(Testbench &bench, AxiSlaveConfig cfg);

    void observe(rtl::Sim &sim);

    AxiSlaveConfig _cfg;
    AxiChannelPorts _paw, _pw, _pb, _par, _pr;
    /** The inputs this agent drives, resolved once at attach. */
    rtl::NetId _aw_ack_in, _w_ack_in, _ar_ack_in, _b_valid, _b_data,
        _r_valid, _r_data;

    bool _aw_ack = false, _w_ack = false, _ar_ack = false;

    // One response of each kind may be pending/presented at a time
    // (the routers issue a single outstanding transaction per
    // direction).
    bool _b_prepare = false, _b_active = false;
    bool _got_aw = false, _got_w = false;
    uint64_t _b_addr = 0, _b_wdata = 0;
    BitVec _b{1};
    uint64_t _writes_accepted = 0;

    bool _r_prepare = false, _r_active = false;
    uint64_t _r_addr = 0;
    BitVec _r{1};
    uint64_t _reads_accepted = 0;
};

} // namespace tb
} // namespace anvil

#endif // ANVIL_TB_AXI_BFM_H
