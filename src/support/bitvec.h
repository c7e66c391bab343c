/**
 * @file
 * Arbitrary-width bit vector used throughout the RTL substrate.
 *
 * Hardware values in both the Anvil compiler output and the handwritten
 * baseline designs are modelled as fixed-width bit vectors.  Nearly all
 * signals in the evaluation designs are 64 bits or narrower, so values
 * up to 64 bits are stored in a single inline word with no heap
 * allocation (small-buffer optimization); wider values (AES-256 keys
 * and the like) spill to a word vector, least-significant word first.
 */

#ifndef ANVIL_SUPPORT_BITVEC_H
#define ANVIL_SUPPORT_BITVEC_H

#include <cstdint>
#include <string>
#include <vector>

namespace anvil {

/**
 * A fixed-width little-endian bit vector.
 *
 * All arithmetic wraps modulo 2^width, mirroring SystemVerilog packed
 * logic semantics (without X/Z states; the simulator is two-state).
 * Zero-width values are permitted (they arise from degenerate slices)
 * and behave as the empty bit string.
 *
 * Invariant: bits at or above width() are always zero, both in the
 * inline word and in the top partial word of wide storage.
 */
class BitVec
{
  public:
    /** Construct a zero value of the given width (default 1 bit). */
    explicit BitVec(int width = 1);

    /** Construct a value of the given width from a 64-bit integer. */
    BitVec(int width, uint64_t value);

    /** Parse a binary string ("1010") into a value of matching width. */
    static BitVec fromBinary(const std::string &bits);

    /** Parse a hex string ("deadbeef") into a value of 4*len bits. */
    static BitVec fromHex(const std::string &hex);

    /** An all-ones value of the given width. */
    static BitVec ones(int width);

    int width() const { return _width; }

    /** Number of 64-bit words backing this value. */
    int words() const { return (_width + 63) / 64; }

    uint64_t word(int i) const
    {
        if (small())
            return i == 0 ? _w0 : 0;
        if (i < 0 || i >= words())
            return 0;
        return _wide[static_cast<size_t>(i)];
    }

    /** Low 64 bits as an integer (truncating wider values). */
    uint64_t toUint64() const { return small() ? _w0 : _wide[0]; }

    /**
     * Overwrite the value in place from a 64-bit integer, keeping the
     * width.  The hot path of the compiled simulator: for values that
     * fit the inline word this is a masked store with no allocation.
     */
    void setUint64(uint64_t v);

    /**
     * Overwrite the value in place from packed little-endian words
     * (missing words read as zero; excess words are ignored), keeping
     * the width.  The wide-value twin of setUint64: how the simulator
     * mirrors multi-word nets out of a compiled kernel's state.
     */
    void setWords(const uint64_t *w, int n);

    bool bit(int i) const
    {
        if (i < 0 || i >= _width)
            return false;
        return (word(i / 64) >> (i % 64)) & 1;
    }

    void setBit(int i, bool v);

    /** True iff any bit is set. */
    bool any() const;

    bool isZero() const { return !any(); }

    /** Return this value zero-extended or truncated to a new width. */
    BitVec resize(int new_width) const;

    /**
     * Bits [lo, lo+n) as an n-bit value.  Bits outside [0, width())
     * — including negative indices when lo < 0 — read as zero;
     * n == 0 yields a zero-width value.
     */
    BitVec slice(int lo, int n) const;

    /** Concatenation: {hi, lo} with this as the low part. */
    BitVec concatHigh(const BitVec &hi) const;

    BitVec operator~() const;
    BitVec operator&(const BitVec &o) const;
    BitVec operator|(const BitVec &o) const;
    BitVec operator^(const BitVec &o) const;
    BitVec operator+(const BitVec &o) const;
    BitVec operator-(const BitVec &o) const;
    BitVec operator*(const BitVec &o) const;

    /**
     * Shifts.  A shift amount that is negative or >= width() yields
     * zero (the hardware semantics of a full barrel shift); amounts
     * >= 64 are handled exactly rather than invoking undefined
     * behaviour on the underlying word shifts.
     */
    BitVec operator<<(int n) const;
    BitVec operator>>(int n) const;

    bool operator==(const BitVec &o) const;
    bool operator!=(const BitVec &o) const { return !(*this == o); }

    /** Unsigned comparison. */
    bool ult(const BitVec &o) const;
    bool ule(const BitVec &o) const;

    /** Population count. */
    int popcount() const;

    /**
     * popcount(*this ^ o) with zero-extension, without materializing
     * the XOR — the toggle-accounting delta of the simulator's
     * changed-net sweep.
     */
    int xorPopcount(const BitVec &o) const;

    /** Render as 0x-prefixed hex (width-padded). */
    std::string toHex() const;

    /** Render as a binary string of exactly width() characters. */
    std::string toBinary() const;

  private:
    bool small() const { return _width <= 64; }

    /** Mask for the inline word (small values only). */
    uint64_t smallMask() const
    {
        return _width >= 64 ? ~0ull : (1ull << _width) - 1;
    }

    uint64_t *data() { return small() ? &_w0 : _wide.data(); }
    const uint64_t *data() const
    {
        return small() ? &_w0 : _wide.data();
    }

    void normalize();

    int _width;
    uint64_t _w0 = 0;             // storage when width() <= 64
    std::vector<uint64_t> _wide;  // storage when width() > 64
};

} // namespace anvil

#endif // ANVIL_SUPPORT_BITVEC_H
