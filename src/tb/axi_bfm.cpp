#include "tb/axi_bfm.h"

#include <tuple>

namespace anvil {
namespace tb {

namespace {

uint64_t
maskBits(uint64_t v, int bits)
{
    return bits >= 64 ? v : v & ((1ull << bits) - 1);
}

} // namespace

// --- AxiMasterBfm --------------------------------------------------------

AxiMasterBfm::AxiMasterBfm(Testbench &bench, AxiMasterConfig cfg)
    : _cfg(std::move(cfg)), _paw(_cfg.prefix, "aw"),
      _pw(_cfg.prefix, "w"), _pb(_cfg.prefix, "b"),
      _par(_cfg.prefix, "ar"), _pr(_cfg.prefix, "r"),
      _aw_valid(bench.sim().inputId(_paw.valid)),
      _aw_data(bench.sim().inputId(_paw.data)),
      _w_valid(bench.sim().inputId(_pw.valid)),
      _w_data(bench.sim().inputId(_pw.data)),
      _b_ack_in(bench.sim().inputId(_pb.ack)),
      _ar_valid(bench.sim().inputId(_par.valid)),
      _ar_data(bench.sim().inputId(_par.data)),
      _r_ack_in(bench.sim().inputId(_pr.ack))
{
    bench.check(_cfg.prefix + "-axi-master",
                [this](Testbench &t) { observe(t); });
}

AxiMasterBfm &
AxiMasterBfm::attach(Testbench &bench, AxiMasterConfig cfg)
{
    auto agent = std::unique_ptr<AxiMasterBfm>(
        new AxiMasterBfm(bench, std::move(cfg)));
    AxiMasterBfm &ref = *agent;
    bench.addDriver(std::move(agent));
    return ref;
}

void
AxiMasterBfm::queueWrite(uint64_t addr, uint64_t data)
{
    _write_queue.emplace_back(addr, data);
}

void
AxiMasterBfm::queueRead(uint64_t addr,
                        std::function<void(const BitVec &)> on_resp)
{
    _read_queue.emplace_back(addr, std::move(on_resp));
}

bool
AxiMasterBfm::idle() const
{
    return _wstate == WState::Idle && _rstate == RState::Idle &&
           _write_queue.empty() && _read_queue.empty();
}

void
AxiMasterBfm::drive(rtl::Sim &sim, uint64_t cycle, SplitMix64 &rng)
{
    // --- Write engine ---------------------------------------------------
    if (_wstate == WState::Idle) {
        bool launch = false;
        uint64_t addr = 0, data = 0;
        if (!_write_queue.empty()) {
            std::tie(addr, data) = _write_queue.front();
            _write_queue.pop_front();
            launch = true;
        } else if (_cfg.random_traffic &&
                   rng.chance(_cfg.start_write_pct)) {
            addr = maskBits(rng.next(), _cfg.addr_bits);
            data = maskBits(rng.next(), _cfg.data_bits);
            launch = true;
        }
        if (launch) {
            _aw = BitVec(_cfg.addr_bits, addr);
            _w = BitVec(_cfg.data_bits, data);
            _aw_done = _w_done = false;
            _wstate = WState::Req;
            _w_start = cycle;
            _w_hang_reported = false;
        }
    }
    // Offered sends hold valid and keep the payload stable until the
    // ack arrives (contract-clean stimulus).
    bool aw_v = _wstate == WState::Req && !_aw_done;
    bool w_v = _wstate == WState::Req && !_w_done;
    sim.setInput(_aw_valid, aw_v ? 1 : 0);
    sim.setInput(_aw_data, _aw);
    sim.setInput(_w_valid, w_v ? 1 : 0);
    sim.setInput(_w_data, _w);
    _b_ack = rng.chance(_cfg.b_ack_pct);
    sim.setInput(_b_ack_in, _b_ack ? 1 : 0);

    // --- Read engine ----------------------------------------------------
    if (_rstate == RState::Idle) {
        bool launch = false;
        uint64_t addr = 0;
        if (!_read_queue.empty()) {
            addr = _read_queue.front().first;
            _on_read = std::move(_read_queue.front().second);
            _read_queue.pop_front();
            launch = true;
        } else if (_cfg.random_traffic &&
                   rng.chance(_cfg.start_read_pct)) {
            addr = maskBits(rng.next(), _cfg.addr_bits);
            _on_read = nullptr;
            launch = true;
        }
        if (launch) {
            _ar = BitVec(_cfg.addr_bits, addr);
            _rstate = RState::Req;
            _r_start = cycle;
            _r_hang_reported = false;
        }
    }
    sim.setInput(_ar_valid, _rstate == RState::Req ? 1 : 0);
    sim.setInput(_ar_data, _ar);
    _r_ack = rng.chance(_cfg.r_ack_pct);
    sim.setInput(_r_ack_in, _r_ack ? 1 : 0);
}

void
AxiMasterBfm::observe(Testbench &bench)
{
    rtl::Sim &sim = bench.sim();
    uint64_t cycle = sim.cycle();

    // Watchdog: a transaction the interconnect never completes is a
    // failure, not a silent stall.
    if (_cfg.timeout > 0) {
        if (_wstate != WState::Idle && !_w_hang_reported &&
            cycle - _w_start >= _cfg.timeout) {
            bench.fail(_cfg.prefix + "-axi-master",
                       "write to " + _aw.toHex() +
                           " not completed within " +
                           std::to_string(_cfg.timeout) + " cycles");
            _w_hang_reported = true;
        }
        if (_rstate != RState::Idle && !_r_hang_reported &&
            cycle - _r_start >= _cfg.timeout) {
            bench.fail(_cfg.prefix + "-axi-master",
                       "read of " + _ar.toHex() +
                           " not completed within " +
                           std::to_string(_cfg.timeout) + " cycles");
            _r_hang_reported = true;
        }
    }

    switch (_wstate) {
      case WState::Idle:
        break;
      case WState::Req:
        if (sim.peek(_paw.valid).any() &&
            sim.peek(_paw.ack).any())
            _aw_done = true;
        if (sim.peek(_pw.valid).any() &&
            sim.peek(_pw.ack).any())
            _w_done = true;
        if (_aw_done && _w_done)
            _wstate = WState::Resp;
        break;
      case WState::Resp:
        if (sim.peek(_pb.valid).any() && _b_ack) {
            _writes_done++;
            _wstate = WState::Idle;
        }
        break;
    }

    switch (_rstate) {
      case RState::Idle:
        break;
      case RState::Req:
        if (sim.peek(_par.valid).any() &&
            sim.peek(_par.ack).any())
            _rstate = RState::Resp;
        break;
      case RState::Resp:
        if (sim.peek(_pr.valid).any() && _r_ack) {
            if (_on_read)
                _on_read(sim.peek(_pr.data));
            _on_read = nullptr;
            _reads_done++;
            _rstate = RState::Idle;
        }
        break;
    }
}

// --- AxiLiteSlaveBfm -----------------------------------------------------

AxiLiteSlaveBfm::AxiLiteSlaveBfm(Testbench &bench, AxiSlaveConfig cfg)
    : _cfg(std::move(cfg)), _paw(_cfg.prefix, "aw"),
      _pw(_cfg.prefix, "w"), _pb(_cfg.prefix, "b"),
      _par(_cfg.prefix, "ar"), _pr(_cfg.prefix, "r"),
      _aw_ack_in(bench.sim().inputId(_paw.ack)),
      _w_ack_in(bench.sim().inputId(_pw.ack)),
      _ar_ack_in(bench.sim().inputId(_par.ack)),
      _b_valid(bench.sim().inputId(_pb.valid)),
      _b_data(bench.sim().inputId(_pb.data)),
      _r_valid(bench.sim().inputId(_pr.valid)),
      _r_data(bench.sim().inputId(_pr.data)),
      _b(_cfg.b_bits), _r(_cfg.r_bits)
{
    bench.check(_cfg.prefix + "-axi-slave",
                [this](Testbench &t) { observe(t.sim()); });
}

AxiLiteSlaveBfm &
AxiLiteSlaveBfm::attach(Testbench &bench, AxiSlaveConfig cfg)
{
    auto agent = std::unique_ptr<AxiLiteSlaveBfm>(
        new AxiLiteSlaveBfm(bench, std::move(cfg)));
    AxiLiteSlaveBfm &ref = *agent;
    bench.addDriver(std::move(agent));
    return ref;
}

void
AxiLiteSlaveBfm::drive(rtl::Sim &sim, uint64_t, SplitMix64 &rng)
{
    _aw_ack = rng.chance(_cfg.aw_ack_pct);
    _w_ack = rng.chance(_cfg.w_ack_pct);
    _ar_ack = rng.chance(_cfg.ar_ack_pct);
    sim.setInput(_aw_ack_in, _aw_ack ? 1 : 0);
    sim.setInput(_w_ack_in, _w_ack ? 1 : 0);
    sim.setInput(_ar_ack_in, _ar_ack ? 1 : 0);

    // Prepared responses go live after a random presentation delay,
    // then hold valid and a stable payload until taken.
    if (_b_prepare && !_b_active && rng.chance(_cfg.resp_pct)) {
        uint64_t resp = _cfg.write_resp
                            ? _cfg.write_resp(_b_addr, _b_wdata)
                            : rng.next();
        _b = BitVec(_cfg.b_bits, resp);
        _b_prepare = false;
        _b_active = true;
    }
    sim.setInput(_b_valid, _b_active ? 1 : 0);
    sim.setInput(_b_data, _b);

    if (_r_prepare && !_r_active && rng.chance(_cfg.resp_pct)) {
        uint64_t resp = _cfg.read_resp ? _cfg.read_resp(_r_addr)
                                       : rng.next();
        _r = BitVec(_cfg.r_bits, resp);
        _r_prepare = false;
        _r_active = true;
    }
    sim.setInput(_r_valid, _r_active ? 1 : 0);
    sim.setInput(_r_data, _r);
}

void
AxiLiteSlaveBfm::observe(rtl::Sim &sim)
{
    if (_cfg.joint_write_accept) {
        // The baseline routers present AW and W together and need
        // both acked in the same cycle; that joint fire is the
        // write acceptance.
        if (!_b_prepare && !_b_active &&
            sim.peek(_paw.valid).any() && _aw_ack &&
            sim.peek(_pw.valid).any() && _w_ack) {
            _b_addr = sim.peek(_paw.data).toUint64();
            _b_wdata = sim.peek(_pw.data).toUint64();
            _b_prepare = true;
            _writes_accepted++;
        }
    } else {
        // Compiled designs complete each channel independently: a
        // fire retires that channel's send, and the write is
        // accepted once both channels fired.
        if (!_got_aw && sim.peek(_paw.valid).any() &&
            _aw_ack) {
            _b_addr = sim.peek(_paw.data).toUint64();
            _got_aw = true;
        }
        if (!_got_w && sim.peek(_pw.valid).any() &&
            _w_ack) {
            _b_wdata = sim.peek(_pw.data).toUint64();
            _got_w = true;
        }
        if (_got_aw && _got_w && !_b_prepare && !_b_active) {
            _got_aw = _got_w = false;
            _b_prepare = true;
            _writes_accepted++;
        }
    }
    if (_b_active && sim.peek(_pb.ack).any())
        _b_active = false;

    if (!_r_prepare && !_r_active &&
        sim.peek(_par.valid).any() && _ar_ack) {
        _r_addr = sim.peek(_par.data).toUint64();
        _r_prepare = true;
        _reads_accepted++;
    }
    if (_r_active && sim.peek(_pr.ack).any())
        _r_active = false;
}

} // namespace tb
} // namespace anvil
