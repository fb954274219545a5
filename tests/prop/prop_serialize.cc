/**
 * @file
 * On-disk format properties: any store survives a save/load round
 * trip bit-for-bit (records, sources, index parameters, cached
 * signatures), any database written as a legacy v2 stream loads
 * as itself, and *every* strict prefix of a valid stream is
 * rejected with a useful error — never a crash, never a silently
 * short database.
 */

#include "prop_common.hh"

#include <sstream>

#include "core/serialize.hh"
#include "core/store.hh"
#include "tests/legacy_streams.hh"

using namespace pcause;
using pcheck::Ctx;

namespace
{

MinHashParams
genParams(Ctx &ctx)
{
    MinHashParams mh;
    mh.numHashes = static_cast<std::uint32_t>(
        8u << ctx.sizeRange(0, 1, "hashes_log8"));
    mh.bands = mh.numHashes / 2;
    mh.seed = ctx.bits("index_seed");
    return mh;
}

FingerprintStore
genStore(Ctx &ctx)
{
    FingerprintStore store(genParams(ctx));
    const std::size_t records = ctx.sizeRange(0, 5, "records");
    if (records > 0) {
        const FingerprintDb db =
            pcheck::genDb(ctx, 64 * records, records);
        for (std::size_t i = 0; i < db.size(); ++i)
            store.add(db.record(i).label, db.record(i).fingerprint);
    }
    return store;
}

} // namespace

PCHECK_PROPERTY(PropSerialize, StoreRoundTripIdentity, [](Ctx &ctx) {
    const FingerprintStore store = genStore(ctx);
    std::stringstream ss;
    PCHECK_MSG(saveStore(store, ss), "save failed");

    StoreLoadResult loaded = loadStore(ss);
    PCHECK_MSG(static_cast<bool>(loaded), loaded.error);
    const FingerprintStore &back = *loaded.value;
    PCHECK_EQ(back.size(), store.size());
    PCHECK(back.indexParams() == store.indexParams());
    for (std::size_t i = 0; i < store.size(); ++i) {
        PCHECK_EQ(back.label(i), store.label(i));
        PCHECK(back.fingerprint(i).bits() ==
               store.fingerprint(i).bits());
        PCHECK_EQ(back.sources(i), store.sources(i));
        // v3 carries signatures verbatim — no recompute drift.
        PCHECK(back.signature(i) == store.signature(i));
    }
})

PCHECK_PROPERTY(PropSerialize, V2StreamLoadsTheDatabase,
                [](Ctx &ctx) {
    const MinHashParams mh = genParams(ctx);
    const std::size_t records = ctx.sizeRange(1, 6, "records");
    const FingerprintDb db =
        pcheck::genDb(ctx, 64 * records, records);
    std::stringstream ss(legacy::v2Stream(db, mh));

    StoreLoadResult loaded = loadStore(ss);
    PCHECK_MSG(static_cast<bool>(loaded), loaded.error);
    const FingerprintStore &back = *loaded.value;
    PCHECK_EQ(back.size(), db.size());
    PCHECK_EQ(back.indexParams().numHashes, mh.numHashes);
    PCHECK_EQ(back.indexParams().bands, mh.bands);
    PCHECK_EQ(back.indexParams().seed, mh.seed);
    for (std::size_t i = 0; i < db.size(); ++i) {
        const Fingerprint &fp = db.record(i).fingerprint;
        PCHECK_EQ(back.label(i), db.record(i).label);
        PCHECK(back.fingerprint(i).bits() == fp.bits());
        PCHECK_EQ(back.sources(i), fp.sources());
        PCHECK(back.signature(i) == minhashSignature(fp.bits(), mh));
    }
})

PCHECK_PROPERTY(PropSerialize, AnyTruncationIsACleanError,
                [](Ctx &ctx) {
    const FingerprintStore store = genStore(ctx);
    std::stringstream ss;
    PCHECK_MSG(saveStore(store, ss), "save failed");
    const std::string full = ss.str();

    const std::size_t cut = ctx.below(full.size(), "cut");
    std::stringstream truncated(full.substr(0, cut));
    StoreLoadResult loaded = loadStore(truncated);
    ctx.note("stream_bytes", full.size());
    PCHECK_MSG(!static_cast<bool>(loaded),
               "a strict prefix of the stream loaded successfully");
    PCHECK_MSG(!loaded.error.empty(),
               "failed load carried no error message");
})
