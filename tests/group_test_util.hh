/**
 * @file
 * Shared group-state helper: tests that compare two groups (or one
 * group before and after an operation) serialize them the same way
 * the table does, so "byte-identical" means the same thing in every
 * suite.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "learned/group.hh"

namespace leaftl
{
namespace test
{

/**
 * The table's per-group wire format (level, S, L, K, I and the CRB
 * run of approximate segments) behind a level/segment count header.
 * A template so reference implementations with the same visitor
 * interface serialize identically.
 */
template <typename G>
std::vector<uint8_t>
groupBlob(const G &group)
{
    std::vector<uint8_t> blob;
    auto put = [&blob](auto v) {
        const size_t at = blob.size();
        blob.resize(at + sizeof(v));
        std::memcpy(blob.data() + at, &v, sizeof(v));
    };
    put(static_cast<uint32_t>(group.numLevels()));
    put(static_cast<uint32_t>(group.numSegments()));
    group.forEachSegment([&](const SegEntry &e, size_t level) {
        put(static_cast<uint16_t>(level));
        put(e.seg.slpa());
        put(e.seg.length());
        put(e.seg.kbits());
        put(e.seg.intercept());
        if (e.seg.approximate()) {
            const auto &run = group.crb().run(e.id);
            put(static_cast<uint16_t>(run.size()));
            for (uint8_t off : run)
                put(off);
        }
    });
    return blob;
}

} // namespace test
} // namespace leaftl
