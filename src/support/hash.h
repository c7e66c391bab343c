/**
 * @file
 * The packed-state table of the explicit-state explorers.
 *
 * The BMC (src/verif/bmc.cpp) and the k-induction prover
 * (src/formal/kinduction.cpp) identify a register state by its packed
 * words (rtl::Sim::packRegs, or the prover's projection of it onto a
 * cone of influence).  PackedStateTable keeps such states as
 * fixed-stride rows of one word arena, in insertion order, so a
 * breadth-first explorer's rows are its frontier too, and finds them
 * through an open-addressing index keyed by FNV-1a over the words.
 * Rows are compared for full equality; the hash is only the probe.
 * Nothing is allocated per state: the arena and the index grow
 * geometrically.
 */

#ifndef ANVIL_SUPPORT_HASH_H
#define ANVIL_SUPPORT_HASH_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace anvil {

/** FNV-1a over n 64-bit words. */
inline uint64_t
fnv1aWords(const uint64_t *words, size_t n)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < n; i++) {
        h ^= words[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Insertion-ordered set of packed-word rows of one fixed stride. */
class PackedStateTable
{
  public:
    static constexpr size_t npos = ~size_t(0);

    explicit PackedStateTable(size_t stride) : _stride(stride) {}

    size_t size() const { return _size; }

    /** Row i's words; invalidated by the next insert. */
    const uint64_t *row(size_t i) const
    {
        return _rows.data() + i * _stride;
    }

    /** Index of the row equal to words[0, stride), or npos. */
    size_t find(const uint64_t *words) const
    {
        if (_slots.empty())
            return npos;
        uint32_t r = _slots[probe(words)];
        return r == 0 ? npos : r - 1;
    }

    /**
     * Append words[0, stride) as a new row unless an equal row
     * exists (words must not point into the table).  Returns the
     * row's index and whether it was added.
     */
    std::pair<size_t, bool> insert(const uint64_t *words)
    {
        if ((_size + 1) * 2 > _slots.size())
            grow();
        size_t s = probe(words);
        if (_slots[s] != 0)
            return {_slots[s] - 1, false};
        _rows.insert(_rows.end(), words, words + _stride);
        _slots[s] = static_cast<uint32_t>(++_size);
        return {_size - 1, true};
    }

  private:
    /**
     * Linear probe from the hash's home slot (Fibonacci reduction of
     * FNV-1a): the slot holding words' row, or the empty slot where
     * it belongs.
     */
    size_t probe(const uint64_t *words) const
    {
        size_t s = static_cast<size_t>(
            (fnv1aWords(words, _stride) * 0x9e3779b97f4a7c15ull) >>
            _shift);
        while (_slots[s] != 0 &&
               !std::equal(words, words + _stride, row(_slots[s] - 1)))
            s = (s + 1) & _mask;
        return s;
    }

    /** Double the index (16 slots to start) and re-place every row. */
    void grow()
    {
        size_t cap = _slots.empty() ? 16 : _slots.size() * 2;
        if (cap > (uint64_t(1) << 32))
            throw std::length_error("PackedStateTable: too many rows");
        _slots.assign(cap, 0);
        _mask = cap - 1;
        _shift = 64 - std::countr_zero(cap);
        for (size_t r = 0; r < _size; r++)
            _slots[probe(row(r))] = static_cast<uint32_t>(r + 1);
    }

    size_t _stride;
    size_t _size = 0;
    std::vector<uint64_t> _rows;     // _size rows of _stride words
    std::vector<uint32_t> _slots;    // row index + 1; 0 = empty
    size_t _mask = 0;
    int _shift = 64;
};

} // namespace anvil

#endif // ANVIL_SUPPORT_HASH_H
