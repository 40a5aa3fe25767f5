//! Hash families: how a bitmap-table cell becomes k positions in an AB.
//!
//! The AB insertion/retrieval algorithms (paper Figures 3 and 5) factor
//! into two pieces:
//!
//! 1. a **cell mapper** `F(i, j)` building the hash string `x` from the
//!    row and column number (§3.2.1), and
//! 2. a **hash family** producing `k` bit positions in `[0, n)` from
//!    `x` (or, for the column-group hash, from the cell directly).
//!
//! Both are first-class values here so the experiments of Figure 10 can
//! swap them freely.

use crate::partow::{
    decimal_key_bytes, decimal_key_bytes_swar, splitmix64, Ap, Bkdr, Dek, Djb, Elf, Fnv, Js, Pjw,
    RosterFn, Rs, Sdbm, FOUR_DIGITS,
};
use crate::sha1::DigestStream;
use crate::simple::multiply_shift;
use serde::{Deserialize, Serialize};

/// The hash string mapping function `x = F(i, j)` (paper §3.2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellMapper {
    /// `x = (row << shift) | col` — used for one AB per data set or per
    /// attribute. `shift` (the paper's user-defined offset `w`) must be
    /// large enough to accommodate every column id, making `x` unique.
    Shifted {
        /// Bit offset for the row; column ids occupy the low `shift` bits.
        shift: u32,
    },
    /// `x = row` — used for one AB per column, where the column is
    /// already implied by which AB is addressed.
    RowOnly,
}

impl CellMapper {
    /// A `Shifted` mapper wide enough for `num_columns` global column
    /// ids.
    pub fn for_columns(num_columns: usize) -> Self {
        let shift = usize::BITS - num_columns.max(1).leading_zeros();
        CellMapper::Shifted { shift }
    }

    /// Computes the hash string for a cell.
    #[inline]
    pub fn map(&self, row: u64, col: u64) -> u64 {
        match *self {
            CellMapper::Shifted { shift } => {
                debug_assert!(
                    shift == 0 || col < (1 << shift),
                    "column id overflows shift"
                );
                (row << shift) | col
            }
            CellMapper::RowOnly => row,
        }
    }
}

/// One general-purpose hash function, dispatchable by value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HashKind {
    /// Robert Sedgewick's hash.
    Rs,
    /// Justin Sobel's bitwise hash.
    Js,
    /// Peter J. Weinberger's hash (weak on short keys — see Fig 10a).
    Pjw,
    /// The Unix ELF-format hash (PJW variant).
    Elf,
    /// Kernighan & Ritchie's multiplicative hash.
    Bkdr,
    /// The sdbm library hash.
    Sdbm,
    /// Daniel J. Bernstein's times-33 hash.
    Djb,
    /// Donald Knuth's shift-xor hash.
    Dek,
    /// Arash Partow's alternating hash.
    Ap,
    /// FNV-1a (64-bit).
    Fnv,
    /// Multiply-shift over the full 64-bit key.
    MultiplyShift,
    /// Circular hash `x mod n` (paper §5.2.2).
    Circular,
}

/// Evaluates one of two bodies around the one function `$kind` names,
/// the kind matched once, outside whatever loop the body holds, and
/// each arm's body compiled around its own function: for a kind that
/// hashes the key's string, `$string` with `$F` its [`RosterFn`]; for
/// one that hashes the integer, `$integer` with `$h` that function.
macro_rules! with_kind {
    ($kind:expr, string $F:ident => $string:expr, integer $h:ident => $integer:expr) => {
        match $kind {
            HashKind::Rs => with_kind!(@string $F = Rs, $string),
            HashKind::Js => with_kind!(@string $F = Js, $string),
            HashKind::Pjw => with_kind!(@string $F = Pjw, $string),
            HashKind::Elf => with_kind!(@string $F = Elf, $string),
            HashKind::Bkdr => with_kind!(@string $F = Bkdr, $string),
            HashKind::Sdbm => with_kind!(@string $F = Sdbm, $string),
            HashKind::Djb => with_kind!(@string $F = Djb, $string),
            HashKind::Dek => with_kind!(@string $F = Dek, $string),
            HashKind::Ap => with_kind!(@string $F = Ap, $string),
            HashKind::Fnv => with_kind!(@string $F = Fnv, $string),
            HashKind::MultiplyShift => {
                let $h = |x: u64| multiply_shift(x, 64);
                $integer
            }
            HashKind::Circular => {
                let $h = |x: u64| x;
                $integer
            }
        }
    };
    (@string $F:ident = $stream:ident, $string:expr) => {{
        type $F = $stream;
        $string
    }};
}

impl HashKind {
    /// All string-style kinds, in the roster order used to assemble
    /// default independent families.
    pub const ROSTER: [HashKind; 10] = [
        HashKind::Bkdr,
        HashKind::Djb,
        HashKind::Sdbm,
        HashKind::Fnv,
        HashKind::Ap,
        HashKind::Rs,
        HashKind::Js,
        HashKind::Dek,
        HashKind::Elf,
        HashKind::Pjw,
    ];

    /// Hashes the integer key `x` to a full-width value (reduce mod the
    /// AB size afterwards). String-style kinds hash the decimal ASCII
    /// form of `x` — see [`decimal_key_bytes`] for why.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        let (bytes, len) = decimal_key_bytes(x);
        self.hash_bytes(&bytes[..len], x)
    }

    /// Hashes a pre-encoded key (`key` is the string form of `x`; the
    /// raw integer is still needed for the integer-native kinds).
    #[inline]
    pub fn hash_bytes(&self, key: &[u8], x: u64) -> u64 {
        with_kind!(self, string F => F::whole(key), integer h => h(x))
    }
}

/// A complete strategy turning a cell into `k` AB bit positions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HashFamily {
    /// `k` independent functions (paper §5.2.2): the t-th probe is
    /// `kinds[t % kinds.len()](x ⊕ seed_t) mod n`, where `seed_0 = 0`
    /// keeps the first probe equal to the raw library function and the
    /// later seeds decorrelate reused kinds when `k > kinds.len()`.
    Independent(
        /// The function roster to cycle through.
        Vec<HashKind>,
    ),
    /// Single SHA-1 digest split into `k` partial values (paper
    /// §5.2.1, Table 1).
    Sha1Split,
    /// Kirsch–Mitzenmacher double hashing: probe t is
    /// `h1(x) + t·h2(x) mod n`, with splitmix-derived h1/h2. Two mixes
    /// regardless of `k` — the cheap alternative the paper's "single
    /// hash function" motivation anticipates.
    DoubleHashing,
    /// Column-group hash (paper §5.2.2): the AB splits into one group
    /// per bitmap column; probe t perturbs the in-group offset by
    /// double hashing so `k > 1` stays within the cell's group. Only
    /// valid with [`CellMapper::Shifted`] levels (the column matters).
    ColumnGroup {
        /// Total number of bitmap columns covered by the AB.
        num_columns: u64,
    },
}

impl HashFamily {
    /// The default family used throughout the experiments: the
    /// independent Partow roster.
    pub fn default_independent() -> Self {
        HashFamily::Independent(HashKind::ROSTER.to_vec())
    }

    /// Computes the `k` bit positions of a cell in an AB of `n` bits
    /// and appends them to `out` (cleared first).
    ///
    /// `row`/`col` are the bitmap-table coordinates; `mapper` builds
    /// the hash string for string-based families.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k == 0`.
    pub fn positions(
        &self,
        row: u64,
        col: u64,
        mapper: CellMapper,
        k: usize,
        n: u64,
        out: &mut Vec<u64>,
    ) {
        assert!(k > 0, "need at least one hash function");
        out.clear();
        let mut prober = self.prober(row, col, mapper, n);
        for _ in 0..k {
            out.push(prober.next_position());
        }
        debug_assert!(out.iter().all(|&p| p < n));
    }

    /// Prepares the incremental probe sequence for one cell: the
    /// per-cell work (mapping, key encoding, digest, stride derivation)
    /// happens once here, and [`Prober::next_position`] then yields the
    /// t-th position on demand. This is what lets the retrieval
    /// algorithm (paper Figure 5) break at the first zero bit without
    /// paying for the remaining k−1 hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (and, for the column-group family, if the
    /// column is out of range).
    pub fn prober(&self, row: u64, col: u64, mapper: CellMapper, n: u64) -> Prober<'_> {
        let col_prober = self.col_prober(col, mapper, n);
        let row_probe = col_prober.begin(row);
        Prober {
            col: col_prober,
            row: row_probe,
        }
    }

    /// Hoists the row-independent half of the probe pipeline for one
    /// (column, AB) pair: family dispatch, the power-of-two reduction
    /// mask, the SHA-1 chunk width, and the column-group geometry are
    /// all resolved once here. The batched query kernel builds one
    /// `ColProber` per (attribute, bin) of a rect query and then derives
    /// per-row positions with only the cheap mixer via
    /// [`ColProber::begin`] / [`ColProber::next_position`].
    ///
    /// The position sequence is bit-identical to [`HashFamily::prober`]
    /// (which is now a thin wrapper over this type), so scalar and
    /// batched probes — and inserts vs retrievals — can never diverge.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (and, for the column-group family, if the
    /// column is out of range).
    pub fn col_prober(&self, col: u64, mapper: CellMapper, n: u64) -> ColProber<'_> {
        assert!(n > 0, "AB size must be positive");
        let kind = match self {
            HashFamily::Independent(kinds) => {
                assert!(!kinds.is_empty(), "empty hash roster");
                ColKind::Independent { kinds }
            }
            HashFamily::Sha1Split => {
                // Chunk width: enough bits to cover n, as in Table 1
                // where a 2^16-bit AB uses 16-bit chunks.
                let m = (64 - (n - 1).leading_zeros().min(63)).max(1);
                ColKind::Sha1 { m }
            }
            HashFamily::DoubleHashing => ColKind::Double,
            HashFamily::ColumnGroup { num_columns } => {
                assert!(*num_columns > 0, "column count must be positive");
                assert!(
                    col < *num_columns,
                    "column {col} out of range {num_columns}"
                );
                ColKind::ColumnGroup {
                    group_size: (n / num_columns).max(1),
                    num_columns: *num_columns,
                }
            }
        };
        let pow2_mask = if n.is_power_of_two() { n - 1 } else { 0 };
        ColProber {
            family: self,
            kind,
            mapper,
            col,
            n,
            pow2_mask,
        }
    }

    /// Flushes `calls` probe computations into this family's
    /// `hashkit.hash_calls.*` counter. Batched callers accumulate a
    /// plain integer across many rows and flush once per query, insert
    /// call or sweep, so the probe loop stays atomics-free (`Prober`
    /// does the same on drop).
    pub fn record_hash_calls(&self, calls: u64) {
        if calls == 0 {
            return;
        }
        let c = match self {
            HashFamily::Independent(_) => obs::counter!("hashkit.hash_calls.independent"),
            HashFamily::Sha1Split => obs::counter!("hashkit.hash_calls.sha1_split"),
            HashFamily::DoubleHashing => obs::counter!("hashkit.hash_calls.double_hashing"),
            HashFamily::ColumnGroup { .. } => obs::counter!("hashkit.hash_calls.column_group"),
        };
        c.add(calls);
    }
}

/// Row-independent probe state for one (column, AB) pair. See
/// [`HashFamily::col_prober`].
///
/// Everything that depends on the column is in the [`RowProbe`]s it
/// begins, so a prober made for one column of an AB can begin and
/// advance probes for any other ([`Self::begin_col`]) — the cell kernel
/// drives every cell of an AB through one prober.
pub struct ColProber<'f> {
    family: &'f HashFamily,
    kind: ColKind<'f>,
    mapper: CellMapper,
    col: u64,
    n: u64,
    /// `n − 1` when `n` is a power of two (the paper always rounds AB
    /// sizes up to powers of two, §4.2, so reduction is a mask, not a
    /// division), else 0 meaning "use modulo".
    pow2_mask: u64,
}

/// The hoisted, per-column half of [`ProbeState`]'s old contents.
enum ColKind<'f> {
    Independent { kinds: &'f [HashKind] },
    Sha1 { m: u32 },
    Double,
    ColumnGroup { group_size: u64, num_columns: u64 },
}

/// Per-row probe state, valid only with the [`ColProber`] that created
/// it. Deliberately small and family-uniform so a query batch can keep
/// one in flight per row lane (and `Copy`, so live lanes can close
/// ranks with plain moves).
#[derive(Clone, Copy)]
pub struct RowProbe {
    state: RowState,
    t: u64,
}

#[derive(Clone, Copy)]
enum RowState {
    Independent { x: u64, bytes: [u8; 20], len: usize },
    Sha1 { stream: DigestStream },
    Double { h1: u64, h2: u64 },
    ColumnGroup { row: u64, h2: u64, group_start: u64 },
}

impl RowProbe {
    /// How many positions have been taken from this probe so far.
    #[inline]
    pub fn probes(&self) -> u64 {
        self.t
    }
}

/// The lane count of a [`LockstepLanes`] batch.
pub const LANES: usize = 256;

/// `0, 1, …, LANES − 1`: every lane of a freshly opened batch is live.
const ALL_LANES: [u8; LANES] = {
    let mut ids = [0u8; LANES];
    let mut i = 0;
    while i < LANES {
        ids[i] = i as u8;
        i += 1;
    }
    ids
};

/// The most prefixes a [`Window`] spans.
const SLOTS: usize = 16;

/// A batch's keys seen through one prefix window, at 10⁴ or else 10⁸:
/// at 10^w a key `y ≥ 10^w` is the text of its prefix `y / 10^w` and
/// then exactly `w` digits. The window holds when the lowest key
/// `lo ≥ 10^w` and the prefixes span at most [`SLOTS`] values from
/// `Q = lo / 10^w`; a lane's slot is its prefix's offset from `Q`. A
/// roster function of a key is its state after the prefix — computed
/// once per slot, started from the whole key's length (DEK starts from
/// it) — resumed over the lane's `w` bytes. Consecutive rows fit at 10⁴
/// in one or two prefixes; scattered keys under 2²⁷ fit nowhere, but
/// XORed with a re-seeded step's seed they fit at 10⁸ in at most three.
struct Window {
    /// The digits each lane keeps — 4 or 8 — or 0: the keys do not fit.
    width: usize,
    /// `Q · 10^width`.
    base: u64,
    /// `text[..n]`: the text of prefixes `Q, Q + 1, …` and its length.
    text: [([u8; 20], usize); SLOTS],
    n: usize,
    /// Each lane's slot and low digits as text (four to a group, the
    /// first `width / 4` groups), by lane index, as
    /// [`LockstepLanes::open`] placed them.
    slot: [u8; LANES],
    low: [[[u8; 4]; 2]; LANES],
}

impl Window {
    /// Fits the window over keys in `lo..=hi`, at 10⁴ if it holds, else
    /// at 10⁸, else not at all (`width` 0).
    #[inline(always)]
    fn fit(&mut self, lo: u64, hi: u64) {
        (self.width, self.n) = (0, 0);
        for (width, at) in [(4, 10_000), (8, 100_000_000)] {
            let q = lo / at;
            // Wraps, and fails, when there are no keys (`lo > hi`).
            let span = (hi / at).wrapping_sub(q);
            if q > 0 && span < SLOTS as u64 {
                (self.width, self.base, self.n) = (width, q * at, span as usize + 1);
                for (prefix, text) in (q..).zip(&mut self.text[..self.n]) {
                    *text = decimal_key_bytes_swar(prefix);
                }
                break;
            }
        }
    }

    /// Key `y`'s slot and its last `4G` digits, as `G` rows of
    /// [`FOUR_DIGITS`]. `y` is inside the window, so its offset from
    /// `base` is under 16 · 10⁸.
    #[inline(always)]
    fn place<const G: usize>(&self, y: u64) -> (usize, [&'static [u8; 4]; G]) {
        let at = 10u32.pow(4 * G as u32);
        let d = (y - self.base) as u32;
        let low = |g: usize| d % at / 10_000u32.pow((G - 1 - g) as u32) % 10_000;
        let groups = std::array::from_fn(|g| &FOUR_DIGITS[low(g) as usize]);
        ((d / at) as usize, groups)
    }

    /// Places every lane's key for the roster steps.
    fn store<const G: usize>(&mut self, keys: &[u64]) {
        for (id, &x) in keys.iter().enumerate() {
            let (slot, groups) = self.place::<G>(x);
            self.slot[id] = slot as u8;
            for (low, group) in self.low[id].iter_mut().zip(groups) {
                *low = *group;
            }
        }
    }

    /// The live lanes' places as [`Self::store`] left them.
    #[inline(always)]
    fn stored<'a, const G: usize>(
        &'a self,
        live: &'a [u8],
    ) -> impl Iterator<Item = (usize, [&'a [u8; 4]; G])> + 'a {
        live.iter().map(|&id| {
            let id = usize::from(id);
            let groups = std::array::from_fn(|g| &self.low[id][g]);
            (usize::from(self.slot[id]), groups)
        })
    }
}

/// Up to [`LANES`] cells of one AB probed in lockstep: opened together
/// ([`Self::open`]) and advanced together, every live lane one step per
/// [`ColProber::next_positions_lockstep`] call, so the batch keeps one
/// step counter for all of them. The batch owns its lanes as arrays and
/// retires a lane by dropping its index from the live list
/// ([`Self::retain`]): no lane's state moves after it opens. For the
/// independent family a lane is its hash string `x` and, written when it
/// opens, its place in the batch's prefix window or else its whole decimal
/// text. Lanes of the other families each keep a [`RowProbe`].
///
/// The batch counts the prefix states its re-seeded steps compute and
/// adds them to `hashkit.seed_prefix_hashes` when it is dropped.
pub struct LockstepLanes {
    /// The step every live lane takes next.
    t: u64,
    /// Whether the lanes were opened by an independent-family prober
    /// (the arrays) or another family's (`probes`).
    roster: bool,
    /// `live[..n_live]`: the live lanes' indices, ascending.
    live: [u8; LANES],
    n_live: usize,
    keys: [u64; LANES],
    /// The lowest and the highest key opened.
    range: (u64, u64),
    /// The keys' window: their own at [`Self::open`], re-seeded ones
    /// from the first re-seeded step on (no roster step follows one).
    window: Window,
    /// The whole keys' text and length, written by [`Self::open`] when
    /// the keys fit no window.
    text: [[u8; 20]; LANES],
    lens: [u8; LANES],
    probes: Vec<RowProbe>,
    /// Prefix states re-seeded steps computed, not yet flushed.
    seed_prefix_hashes: u64,
}

impl Default for LockstepLanes {
    fn default() -> Self {
        Self::new()
    }
}

impl LockstepLanes {
    /// An empty batch.
    pub fn new() -> Self {
        LockstepLanes {
            t: 0,
            roster: false,
            live: ALL_LANES,
            n_live: 0,
            keys: [0; LANES],
            range: (u64::MAX, 0),
            window: Window {
                width: 0,
                base: 0,
                text: [([0; 20], 0); SLOTS],
                n: 0,
                slot: [0; LANES],
                low: [[[0; 4]; 2]; LANES],
            },
            text: [[0; 20]; LANES],
            lens: [0; LANES],
            probes: Vec::new(),
            seed_prefix_hashes: 0,
        }
    }

    /// Replaces the batch with one lane per `(row, col)` cell, all live
    /// and at step 0: takes at most [`LANES`] cells from `cells` and
    /// returns how many that was. Lane `i` is the `i`-th cell taken.
    /// The cells may name any columns of `prober`'s AB
    /// ([`ColProber::begin_col`]). An independent-family batch fits
    /// its keys in a prefix window at 10⁴ or 10⁸, and encodes each whole
    /// key by [`decimal_key_bytes_swar`] only if they fit neither.
    ///
    /// # Panics
    ///
    /// Panics, for the column-group family, if a column is out of range.
    pub fn open(
        &mut self,
        prober: &ColProber<'_>,
        cells: impl IntoIterator<Item = (u64, u64)>,
    ) -> usize {
        let cells = cells.into_iter().take(LANES);
        self.t = 0;
        self.roster = matches!(prober.kind, ColKind::Independent { .. });
        let mut n = 0;
        if self.roster {
            let (mut lo, mut hi) = (u64::MAX, 0);
            for (row, col) in cells {
                let x = prober.mapper.map(row, col);
                (lo, hi) = (lo.min(x), hi.max(x));
                self.keys[n] = x;
                n += 1;
            }
            self.range = (lo, hi);
            let keys = &self.keys[..n];
            self.window.fit(lo, hi);
            match self.window.width {
                4 => self.window.store::<1>(keys),
                8 => self.window.store::<2>(keys),
                _ => {
                    for (id, &x) in keys.iter().enumerate() {
                        let (text, len) = decimal_key_bytes_swar(x);
                        self.text[id] = text;
                        self.lens[id] = len as u8;
                    }
                }
            }
        } else {
            self.probes.clear();
            self.probes
                .extend(cells.map(|(row, col)| prober.begin_col(row, col)));
            n = self.probes.len();
        }
        self.live = ALL_LANES;
        self.n_live = n;
        n
    }

    /// Live lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_live
    }

    /// Whether every lane has retired.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_live == 0
    }

    /// The live lanes' indices, ascending (the order their cells were
    /// opened in).
    #[inline]
    pub fn live(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.live_ids().iter().map(|&id| usize::from(id))
    }

    #[inline(always)]
    fn live_ids(&self) -> &[u8] {
        &self.live[..self.n_live]
    }

    /// The independent family's live keys, in lane order.
    #[inline(always)]
    fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.live_ids().iter().map(|&id| self.keys[usize::from(id)])
    }

    /// Retires every live lane `j` (the `j`-th of [`Self::live`]) whose
    /// `keep[j]` is false; the rest stay live, in order. Branch-free:
    /// only the live list's bytes move.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is shorter than the live lanes.
    #[inline]
    pub fn retain(&mut self, keep: &[bool]) {
        let keep = &keep[..self.n_live];
        let mut kept = 0;
        for (j, &k) in keep.iter().enumerate() {
            self.live[kept] = self.live[j];
            kept += usize::from(k);
        }
        self.n_live = kept;
    }
}

/// Flushes the batch's prefix-state count once, when it dies — the
/// steps themselves stay atomics-free.
impl Drop for LockstepLanes {
    fn drop(&mut self) {
        if self.seed_prefix_hashes > 0 {
            obs::counter!("hashkit.seed_prefix_hashes").add(self.seed_prefix_hashes);
        }
    }
}

impl ColProber<'_> {
    /// The AB size this prober reduces into.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Starts the probe sequence for one row of this prober's column:
    /// only the cheap per-row work (cell mapping, key encoding or mixer
    /// seeding) happens here. The key still comes from the plain
    /// [`decimal_key_bytes`], as do the re-seeded probes'; DESIGN.md §13
    /// ("Why the rect kernel does not use them yet") says what holds
    /// the faster encoder back on the rect path.
    #[inline]
    pub fn begin(&self, row: u64) -> RowProbe {
        self.begin_with(row, self.col, decimal_key_bytes)
    }

    /// [`Self::begin`] for a cell of any column of the same AB (same
    /// family, mapper and size — only `col` differs), with the key
    /// encoded by [`decimal_key_bytes_swar`]: the same probe, begun in
    /// about half the time. A [`LockstepLanes`] batch opens the lanes
    /// of every family but the independent one with it.
    ///
    /// # Panics
    ///
    /// Panics, for the column-group family, if the column is out of
    /// range.
    #[inline(always)]
    pub fn begin_col(&self, row: u64, col: u64) -> RowProbe {
        // A closure marked for inlining: the function item went through
        // an out-of-line `Fn::call` shim, 50 → 54 ns per cell kernel cell.
        #[allow(clippy::redundant_closure)]
        self.begin_with(
            row,
            col,
            #[inline(always)]
            |x| decimal_key_bytes_swar(x),
        )
    }

    #[inline(always)]
    fn begin_with(
        &self,
        row: u64,
        col: u64,
        encode_key: impl Fn(u64) -> ([u8; 20], usize),
    ) -> RowProbe {
        let state = match &self.kind {
            ColKind::Independent { .. } => {
                let x = self.mapper.map(row, col);
                // One key encoding covers every unseeded probe.
                let (bytes, len) = encode_key(x);
                RowState::Independent { x, bytes, len }
            }
            ColKind::Sha1 { .. } => {
                let x = self.mapper.map(row, col);
                RowState::Sha1 {
                    stream: DigestStream::new(x),
                }
            }
            ColKind::Double => {
                let x = self.mapper.map(row, col);
                RowState::Double {
                    h1: splitmix64(x),
                    h2: splitmix64(x ^ 0x5851_F42D_4C95_7F2D) | 1, // odd stride
                }
            }
            ColKind::ColumnGroup {
                group_size,
                num_columns,
            } => {
                assert!(
                    col < *num_columns,
                    "column {col} out of range {num_columns}"
                );
                RowState::ColumnGroup {
                    row,
                    h2: splitmix64(row) | 1,
                    group_start: (col * group_size).min(self.n - 1),
                }
            }
        };
        RowProbe { state, t: 0 }
    }

    /// The next probe position for `probe`, in `[0, n)`. The sequence
    /// is unbounded; callers take the first `k`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `probe` came from a `ColProber` of a
    /// different family.
    #[inline]
    pub fn next_position(&self, probe: &mut RowProbe) -> u64 {
        let t = probe.t;
        probe.t += 1;
        match (&self.kind, &mut probe.state) {
            (ColKind::Independent { kinds }, RowState::Independent { x, bytes, len }) => {
                let h = if (t as usize) < kinds.len() {
                    kinds[t as usize].hash_bytes(&bytes[..*len], *x)
                } else {
                    // Roster exhausted: decorrelate the reused kind
                    // with a per-probe seed.
                    kinds[t as usize % kinds.len()].hash(*x ^ splitmix64(t))
                };
                self.reduce_hash(h)
            }
            (ColKind::Sha1 { m }, RowState::Sha1 { stream }) => {
                let h = stream.take(*m);
                self.reduce_hash(h)
            }
            (ColKind::Double, RowState::Double { h1, h2 }) => {
                let h = h1.wrapping_add(t.wrapping_mul(*h2));
                self.reduce_hash(h)
            }
            (
                ColKind::ColumnGroup { group_size, .. },
                RowState::ColumnGroup {
                    row,
                    h2,
                    group_start,
                },
            ) => {
                let off = row.wrapping_add(t.wrapping_mul(*h2)) % *group_size;
                (*group_start + off).min(self.n - 1)
            }
            _ => unreachable!("RowProbe used with a ColProber of a different family"),
        }
    }

    /// Batch form of [`Self::next_position`]: advances every probe in
    /// `probes` by one step, writing the positions into
    /// `out[..probes.len()]`. The sequence per probe is bit-identical
    /// to calling `next_position` repeatedly — this is a *schedule*
    /// optimization, not a hash change: the family dispatch and the
    /// reduction-strategy branch are resolved once per batch instead of
    /// once per probe, so the mixer families (double hashing,
    /// column-group) compile to tight branch-free inner loops the
    /// autovectorizer can widen, and the batched query kernel gets all
    /// of a batch's first-probe positions from one call.
    ///
    /// The probes may each be at a different step, so the string
    /// families (independent roster, SHA-1 split) take the scalar path
    /// inside the hoisted dispatch; a batch known to be in step wants
    /// [`Self::next_positions_lockstep`].
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `probes` (and, in debug builds,
    /// if any probe came from a `ColProber` of a different family).
    pub fn next_positions(&self, probes: &mut [RowProbe], out: &mut [u64]) {
        assert!(
            out.len() >= probes.len(),
            "output buffer shorter than probe batch"
        );
        match &self.kind {
            ColKind::Independent { .. } | ColKind::Sha1 { .. } => {
                for (p, o) in probes.iter_mut().zip(out.iter_mut()) {
                    *o = self.next_position(p);
                }
            }
            ColKind::Double => {
                for (p, o) in probes.iter_mut().zip(out.iter_mut()) {
                    let t = p.t;
                    p.t += 1;
                    let RowState::Double { h1, h2 } = &p.state else {
                        unreachable!("RowProbe used with a ColProber of a different family")
                    };
                    *o = self.reduce_hash(h1.wrapping_add(t.wrapping_mul(*h2)));
                }
            }
            ColKind::ColumnGroup { group_size, .. } => {
                for (p, o) in probes.iter_mut().zip(out.iter_mut()) {
                    let t = p.t;
                    p.t += 1;
                    let RowState::ColumnGroup {
                        row,
                        h2,
                        group_start,
                    } = &p.state
                    else {
                        unreachable!("RowProbe used with a ColProber of a different family")
                    };
                    let off = row.wrapping_add(t.wrapping_mul(*h2)) % *group_size;
                    *o = (*group_start + off).min(self.n - 1);
                }
            }
        }
    }

    /// Advances every live lane of a [`LockstepLanes`] batch one step,
    /// writing lane `live[j]`'s position into `out[j]`: the sequence per
    /// lane is bit-identical to calling [`Self::next_position`] on its
    /// cell's own probe. All lanes are at the batch's one step `t`, so
    /// the roster function `t` names is matched once, and runs over each
    /// prefix of the batch's window once and four or eight bytes per
    /// lane. Past the roster the batch shares its seed too, and windows
    /// its re-seeded keys `x ⊕ seed` once per step.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the batch's live lanes, or if the
    /// lanes were opened by a prober of another family.
    pub fn next_positions_lockstep(&self, lanes: &mut LockstepLanes, out: &mut [u64]) {
        let n = lanes.n_live;
        assert!(out.len() >= n, "output buffer shorter than probe batch");
        assert!(
            lanes.roster == matches!(self.kind, ColKind::Independent { .. }),
            "lanes opened by a prober of a different family"
        );
        let t = lanes.t;
        lanes.t += 1;
        let out = &mut out[..n];
        match &self.kind {
            // A roster step indexes the roster: no division per step.
            ColKind::Independent { kinds } => match kinds.get(t as usize) {
                Some(kind) => with_kind!(
                    kind,
                    string F => self.roster_step::<F>(lanes, out),
                    integer h => {
                        for (o, x) in out.iter_mut().zip(lanes.keys()) {
                            *o = self.reduce_hash(h(x));
                        }
                    }
                ),
                None => self.reseeded_step(kinds[t as usize % kinds.len()], lanes, out, t),
            },
            // The mixers' steps are a multiply and an add, and SHA-1
            // reads its digest bit by bit — nothing to hoist.
            _ => {
                let LockstepLanes { live, probes, .. } = lanes;
                for (o, &id) in out.iter_mut().zip(&live[..n]) {
                    *o = self.next_position(&mut probes[usize::from(id)]);
                }
            }
        }
    }

    /// One lockstep roster step of a string kind: every live lane takes
    /// `F` of its key's text — resumed from its prefix's state if the
    /// batch's keys fit a window, else `F` of each lane's whole text.
    /// Inlined into each arm of `next_positions_lockstep` so the loops
    /// are compiled around their one function.
    #[inline(always)]
    fn roster_step<F: RosterFn>(&self, lanes: &LockstepLanes, out: &mut [u64]) {
        let (window, live) = (&lanes.window, lanes.live_ids());
        match window.width {
            4 => self.resumed::<F, 1>(window, window.stored(live), out),
            8 => self.resumed::<F, 2>(window, window.stored(live), out),
            _ => {
                for (o, &id) in out.iter_mut().zip(live) {
                    let id = usize::from(id);
                    let text = &lanes.text[id][..usize::from(lanes.lens[id])];
                    *o = self.reduce_hash(F::whole(text));
                }
            }
        }
    }

    /// One lockstep step past the roster: every live lane takes
    /// `kind.hash(x ^ splitmix64(t))`, to the bit. Kept out of line —
    /// compiled into the roster arms of `next_positions_lockstep` it
    /// slowed k = 6 and k = 10 inserts, which never get here, by
    /// 10–25 %.
    #[inline(never)]
    fn reseeded_step(&self, kind: HashKind, lanes: &mut LockstepLanes, out: &mut [u64], t: u64) {
        let seed = splitmix64(t);
        with_kind!(
            kind,
            string F => self.seeded_step::<F>(lanes, out, seed),
            // No string, so no digits to share.
            integer h => {
                for (o, x) in out.iter_mut().zip(lanes.keys()) {
                    *o = self.reduce_hash(h(x ^ seed));
                }
            }
        )
    }

    /// [`Self::reseeded_step`] for a string kind. A key `x < 2^b` keeps
    /// the seed's high `64 − b` bits in `x ^ seed`, so nearby keys stay
    /// nearby: the step fits them a window (the roster steps' is dead by
    /// now) and places each lane in it as it hashes it.
    fn seeded_step<F: RosterFn>(&self, lanes: &mut LockstepLanes, out: &mut [u64], seed: u64) {
        // Every key in `lo..=hi` has the bits above the highest one where
        // `lo` and `hi` differ, so under the seed the live keys, however
        // many retired, stay in one aligned block of the bits below it.
        let (lo, hi) = lanes.range;
        let below = u64::MAX.checked_shr((lo ^ hi).leading_zeros()).unwrap_or(0);
        let (lo, hi) = ((lo ^ seed) & !below, (lo ^ seed) | below);
        lanes.window.fit(lo, hi);
        lanes.seed_prefix_hashes += lanes.window.n as u64;
        let (window, keys, live) = (&lanes.window, &lanes.keys, lanes.live_ids());
        let seeded = live.iter().map(|&id| keys[usize::from(id)] ^ seed);
        match window.width {
            4 => self.resumed::<F, 1>(window, seeded.map(|y| window.place(y)), out),
            8 => self.resumed::<F, 2>(window, seeded.map(|y| window.place(y)), out),
            _ => {
                for (o, y) in out.iter_mut().zip(seeded) {
                    let (text, len) = decimal_key_bytes_swar(y);
                    *o = self.reduce_hash(F::whole(&text[..len]));
                }
            }
        }
    }

    /// `F` of every lane in a window, given as its slot and last `4G`
    /// digits: each prefix hashed once, then each lane resumes its
    /// prefix's state over a fixed byte count, so the loop body is
    /// straight-line code and consecutive lanes' chains overlap.
    #[inline(always)]
    fn resumed<'a, F: RosterFn, const G: usize>(
        &self,
        window: &Window,
        lanes: impl Iterator<Item = (usize, [&'a [u8; 4]; G])>,
        out: &mut [u64],
    ) {
        // Filled in place: an array returned by a helper is `memcpy`d out
        // on every step.
        let mut states = [F::start(0); SLOTS];
        for (state, &(text, len)) in states.iter_mut().zip(&window.text[..window.n]) {
            *state = F::resume(F::start(len + 4 * G), &text[..len]);
        }
        for (o, (slot, groups)) in out.iter_mut().zip(lanes) {
            let state = groups
                .iter()
                .fold(states[slot % SLOTS], |s, g| F::resume(s, *g));
            *o = self.reduce_hash(state.hash());
        }
    }

    /// Reduces a full-width hash into `[0, n)`.
    #[inline]
    fn reduce_hash(&self, h: u64) -> u64 {
        if self.pow2_mask != 0 {
            h & self.pow2_mask
        } else {
            h % self.n
        }
    }

    /// [`HashFamily::record_hash_calls`] for this prober's family.
    pub fn record_hash_calls(&self, calls: u64) {
        self.family.record_hash_calls(calls);
    }
}

/// Lazily yields the probe positions of one cell in increasing probe
/// order. Created by [`HashFamily::prober`]; a thin wrapper binding a
/// [`ColProber`] to one [`RowProbe`].
pub struct Prober<'f> {
    col: ColProber<'f>,
    row: RowProbe,
}

impl Prober<'_> {
    /// The next probe position, in `[0, n)`. The sequence is unbounded;
    /// callers take the first `k`.
    #[inline]
    pub fn next_position(&mut self) -> u64 {
        self.col.next_position(&mut self.row)
    }
}

impl Iterator for Prober<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(self.next_position())
    }
}

/// Flushes the probe count into the per-family `hashkit.hash_calls.*`
/// counters exactly once per cell, when the prober dies — the probe
/// loop itself stays atomics-free.
impl Drop for Prober<'_> {
    fn drop(&mut self) {
        self.col.record_hash_calls(self.row.t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions(family: &HashFamily, row: u64, col: u64, k: usize, n: u64) -> Vec<u64> {
        let mut out = Vec::new();
        family.positions(row, col, CellMapper::for_columns(16), k, n, &mut out);
        out
    }

    #[test]
    fn cell_mapper_shifted_is_injective() {
        let m = CellMapper::for_columns(100); // shift = 7
        let mut seen = std::collections::HashSet::new();
        for row in 0..50u64 {
            for col in 0..100u64 {
                assert!(seen.insert(m.map(row, col)), "collision at ({row},{col})");
            }
        }
    }

    #[test]
    fn cell_mapper_row_only_ignores_column() {
        let m = CellMapper::RowOnly;
        assert_eq!(m.map(7, 0), m.map(7, 5));
        assert_eq!(m.map(7, 0), 7);
    }

    #[test]
    fn for_columns_shift_accommodates_ids() {
        // 100 columns need 7 bits.
        assert_eq!(
            CellMapper::for_columns(100),
            CellMapper::Shifted { shift: 7 }
        );
        assert_eq!(
            CellMapper::for_columns(128),
            CellMapper::Shifted { shift: 8 }
        );
        assert_eq!(CellMapper::for_columns(1), CellMapper::Shifted { shift: 1 });
    }

    #[test]
    fn independent_family_yields_k_positions() {
        let f = HashFamily::default_independent();
        for k in 1..=15 {
            let p = positions(&f, 3, 4, k, 1 << 16);
            assert_eq!(p.len(), k);
            assert!(p.iter().all(|&x| x < (1 << 16)));
        }
    }

    #[test]
    fn independent_family_deterministic() {
        let f = HashFamily::default_independent();
        assert_eq!(positions(&f, 3, 4, 5, 4096), positions(&f, 3, 4, 5, 4096));
        assert_ne!(positions(&f, 3, 4, 5, 4096), positions(&f, 3, 5, 5, 4096));
    }

    #[test]
    fn sha1_split_yields_k_positions() {
        let f = HashFamily::Sha1Split;
        let p = positions(&f, 10, 2, 10, 1 << 16);
        assert_eq!(p.len(), 10);
        assert!(p.iter().all(|&x| x < (1 << 16)));
        // k beyond the 160-bit digest still works via extension.
        assert_eq!(positions(&f, 10, 2, 30, 1 << 16).len(), 30);
    }

    #[test]
    fn double_hashing_probes_differ() {
        let f = HashFamily::DoubleHashing;
        let p = positions(&f, 10, 2, 8, 1 << 20);
        let distinct: std::collections::HashSet<_> = p.iter().collect();
        assert!(distinct.len() >= 7, "degenerate probe sequence: {p:?}");
    }

    #[test]
    fn column_group_stays_in_group() {
        let f = HashFamily::ColumnGroup { num_columns: 8 };
        let n = 8 * 64; // group size 64
        for col in 0..8u64 {
            for row in 0..200u64 {
                let p = positions(&f, row, col, 3, n);
                for &pos in &p {
                    assert!(
                        pos >= col * 64 && pos < (col + 1) * 64,
                        "({row},{col}) escaped its group: {pos}"
                    );
                }
            }
        }
    }

    #[test]
    fn column_group_k1_matches_simple_hash() {
        let f = HashFamily::ColumnGroup { num_columns: 4 };
        let p = positions(&f, 13, 2, 1, 40);
        assert_eq!(p, vec![crate::simple::column_group_hash(13, 2, 4, 40)]);
    }

    #[test]
    fn families_disagree_with_each_other() {
        // Sanity: different families genuinely hash differently.
        let a = positions(&HashFamily::default_independent(), 5, 1, 4, 1 << 14);
        let b = positions(&HashFamily::Sha1Split, 5, 1, 4, 1 << 14);
        let c = positions(&HashFamily::DoubleHashing, 5, 1, 4, 1 << 14);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    #[should_panic(expected = "at least one hash")]
    fn zero_k_rejected() {
        positions(&HashFamily::DoubleHashing, 0, 0, 0, 16);
    }

    /// The hoisted `ColProber` path (used by the batched query kernel)
    /// must yield exactly the sequences the classic `Prober` path (used
    /// by inserts) yields — a divergence would manifest as false
    /// negatives, which the paper's encoding never allows.
    #[test]
    fn col_prober_matches_prober_for_all_families() {
        let families = [
            HashFamily::default_independent(),
            HashFamily::Independent(vec![HashKind::Fnv, HashKind::Djb]),
            HashFamily::Sha1Split,
            HashFamily::DoubleHashing,
            HashFamily::ColumnGroup { num_columns: 16 },
        ];
        for mapper in [CellMapper::for_columns(16), CellMapper::RowOnly] {
            for f in &families {
                if matches!(f, HashFamily::ColumnGroup { .. }) && mapper == CellMapper::RowOnly {
                    continue; // column-group needs real column ids
                }
                for n in [1 << 14, (1 << 14) - 123] {
                    for col in [0u64, 7] {
                        let cp = f.col_prober(col, mapper, n);
                        for row in [0u64, 1, 999, 123_456] {
                            let mut rp = cp.begin(row);
                            // k = 13 exercises the roster-reuse branch.
                            let via_col: Vec<u64> =
                                (0..13).map(|_| cp.next_position(&mut rp)).collect();
                            let via_prober: Vec<u64> =
                                f.prober(row, col, mapper, n).take(13).collect();
                            assert_eq!(via_col, via_prober, "{f:?} n={n} col={col} row={row}");
                            assert_eq!(rp.probes(), 13);
                        }
                    }
                }
            }
        }
    }

    /// The batch API must be a pure re-schedule of `next_position`:
    /// same positions, same `t` advancement, for every family —
    /// including mixed batch/scalar interleavings, which is exactly how
    /// the batched kernel consumes it (batched first probes, scalar
    /// continuations).
    #[test]
    fn next_positions_matches_next_position_for_all_families() {
        let families = [
            HashFamily::default_independent(),
            HashFamily::Sha1Split,
            HashFamily::DoubleHashing,
            HashFamily::ColumnGroup { num_columns: 16 },
        ];
        let mapper = CellMapper::for_columns(16);
        for f in &families {
            for n in [1u64 << 14, (1 << 14) - 123] {
                let cp = f.col_prober(3, mapper, n);
                let rows = [0u64, 1, 999, 123_456, 77, 31];
                // Reference: 4 sequential probes per row.
                let want: Vec<Vec<u64>> = rows
                    .iter()
                    .map(|&r| {
                        let mut p = cp.begin(r);
                        (0..4).map(|_| cp.next_position(&mut p)).collect()
                    })
                    .collect();
                // Batched: one wave per probe index across all rows.
                let mut probes: Vec<RowProbe> = rows.iter().map(|&r| cp.begin(r)).collect();
                let mut out = vec![0u64; rows.len()];
                #[allow(clippy::needless_range_loop)] // step indexes the 2-D reference table
                for step in 0..4 {
                    cp.next_positions(&mut probes, &mut out);
                    for (r, &got) in out.iter().enumerate() {
                        assert_eq!(got, want[r][step], "{f:?} n={n} row#{r} step {step}");
                    }
                }
                // Interleaved: batch one step, then scalar the rest.
                let mut probes: Vec<RowProbe> = rows.iter().map(|&r| cp.begin(r)).collect();
                cp.next_positions(&mut probes, &mut out);
                for (r, p) in probes.iter_mut().enumerate() {
                    assert_eq!(cp.next_position(p), want[r][1], "{f:?} interleaved row#{r}");
                    assert_eq!(p.probes(), 2);
                }
            }
        }
    }

    /// The lockstep batch step is the same re-schedule with the roster
    /// dispatch hoisted: same positions, same step count, for every
    /// family, over every function of the roster and two passes of the
    /// re-seeded probes past it — on small keys and on keys that
    /// already have 19 and 20 digits before a seed is mixed in.
    #[test]
    fn lockstep_positions_match_next_position_for_all_families() {
        const STEPS: usize = 24;
        let families = [
            HashFamily::default_independent(),
            HashFamily::Independent(vec![HashKind::MultiplyShift, HashKind::Circular]),
            HashFamily::Sha1Split,
            HashFamily::DoubleHashing,
            HashFamily::ColumnGroup { num_columns: 16 },
        ];
        let mapper = CellMapper::for_columns(16);
        let small = [0u64, 1, 999, 123_456, 77, 31];
        // The mapper shifts these left by 5: three 19-digit keys and a
        // 20-digit one.
        let long = [
            (1u64 << 55) + 5,
            (1 << 56) - 1,
            (1 << 59) - 3,
            (1 << 58) + 7,
        ];
        let digits = |row| mapper.map(row, 3).to_string().len();
        assert_eq!(long.map(digits), [19, 19, 20, 19]);
        for f in &families {
            for (n, rows) in [
                (1u64 << 14, &small[..]),
                ((1 << 14) - 123, &small[..]),
                (1 << 14, &long[..]),
            ] {
                let cp = f.col_prober(3, mapper, n);
                let want: Vec<Vec<u64>> = rows
                    .iter()
                    .map(|&r| {
                        let mut p = cp.begin(r);
                        (0..STEPS).map(|_| cp.next_position(&mut p)).collect()
                    })
                    .collect();
                let mut lanes = LockstepLanes::new();
                lanes.open(&cp, rows.iter().map(|&r| (r, 3)));
                let mut out = vec![0u64; rows.len()];
                #[allow(clippy::needless_range_loop)] // step indexes the 2-D reference table
                for step in 0..STEPS {
                    cp.next_positions_lockstep(&mut lanes, &mut out);
                    for (r, &got) in out.iter().enumerate() {
                        assert_eq!(got, want[r][step], "{f:?} n={n} row#{r} step {step}");
                    }
                    assert_eq!(lanes.t, step as u64 + 1);
                }
            }
        }
    }

    /// The re-seeded lockstep step hashes each leading-digit prefix of
    /// `x ⊕ seed` once per batch; these batches sit on every edge of its
    /// prefix window, for every roster function in a re-seeded
    /// position, and each position must be `HashKind::hash(x ⊕ seed)`
    /// reduced — the scalar path's value, which knows no prefixes.
    #[test]
    fn reseeded_lockstep_step_matches_hash_on_the_memo_edges() {
        const G: u64 = 100_000_000;
        // Re-seeded keys `y = x ⊕ seed`, 256 of them; a batch of the
        // first two already straddles a multiple of 10⁸.
        let edge_keys = |seed: u64| -> Vec<u64> {
            let p = 10_000_000_000 + seed % 1000; // an 11-digit prefix
            let mut ys = vec![
                // Both sides of a multiple of 10⁸, in both orders.
                p * G - 1,
                p * G,
                p * G + 1,
                (p + 1) * G - 1,
                (p + 9) * G + 3,
                (p + 9) * G - 3,
                // No prefix at all, and the smallest one.
                0,
                7,
                G - 1,
                G,
                G + 1,
                // 18, 19 and 20 digits; 12-digit prefixes.
                10u64.pow(17),
                10u64.pow(17) + 12_345_678,
                10u64.pow(18) - 1,
                10u64.pow(18),
                10u64.pow(19) - 1,
                10u64.pow(19),
                u64::MAX,
            ];
            // More prefixes than any few-entry memo holds — strides of
            // one, and of every power of two up to 64 so that some pair
            // collides whatever indexes it — each followed by a return
            // to the first.
            for stride in [1, 2, 4, 8, 16, 32, 64] {
                for j in 0..6 {
                    ys.extend([(p + j * stride) * G + j, p * G + 99_999_999 - j]);
                }
            }
            // The build's pattern at a boundary: lanes alternate sides.
            let mut i = 0;
            while ys.len() < 256 {
                ys.extend([(p + 2) * G + i * 977, (p + 2) * G - 1 - i * 1013]);
                i += 1;
            }
            ys
        };
        let mut families: Vec<(HashFamily, u64)> = HashKind::ROSTER
            .iter()
            .map(|&kind| (HashFamily::Independent(vec![kind]), 24))
            .collect();
        families.push((HashFamily::default_independent(), 34));
        let mut digits_seen = [false; 21];
        for (family, last_t) in &families {
            let HashFamily::Independent(kinds) = family else {
                unreachable!()
            };
            for mapper in [CellMapper::RowOnly, CellMapper::Shifted { shift: 5 }] {
                let shift = match mapper {
                    CellMapper::Shifted { shift } => shift,
                    CellMapper::RowOnly => 0,
                };
                for n in [1u64 << 14, 16_381] {
                    let cp = family.col_prober(0, mapper, n);
                    for t in kinds.len() as u64..=*last_t {
                        let seed = splitmix64(t);
                        let kind = kinds[t as usize % kinds.len()];
                        let xs: Vec<u64> = edge_keys(seed).iter().map(|y| y ^ seed).collect();
                        for width in [1, 2, 255, 256] {
                            let mut lanes = LockstepLanes::new();
                            lanes.open(
                                &cp,
                                xs[..width]
                                    .iter()
                                    .map(|&x| (x >> shift, x & ((1 << shift) - 1))),
                            );
                            lanes.t = t; // as if t steps had been taken
                            let mut out = vec![0u64; width];
                            cp.next_positions_lockstep(&mut lanes, &mut out);
                            for (&x, &got) in xs.iter().zip(&out) {
                                let y = x ^ seed;
                                digits_seen[y.to_string().len()] = true;
                                assert_eq!(got, kind.hash(y) % n, "{kind:?} t={t} n={n} y={y}");
                            }
                            assert_eq!(lanes.t, t + 1);
                        }
                    }
                }
            }
        }
        assert!(digits_seen[1] && digits_seen[8] && digits_seen[9]);
        assert!(digits_seen[18] && digits_seen[19] && digits_seen[20]);
    }

    /// A prober made for one column begins and advances probes for any
    /// column of its AB: the sequence is the one the column's own
    /// prober yields. This is what lets the cell kernel run every cell
    /// of an AB, whatever its bin, through one batch.
    #[test]
    fn begin_col_yields_the_other_columns_own_sequence() {
        let families = [
            HashFamily::default_independent(),
            HashFamily::Sha1Split,
            HashFamily::DoubleHashing,
            HashFamily::ColumnGroup { num_columns: 16 },
        ];
        let mapper = CellMapper::for_columns(16);
        let n = 1u64 << 14;
        for f in &families {
            let host = f.col_prober(3, mapper, n);
            // One lockstep batch mixing five columns.
            let cells = [(5u64, 0u64), (5, 15), (999, 3), (123_456, 7), (0, 9)];
            let mut lanes = LockstepLanes::new();
            assert_eq!(lanes.open(&host, cells), cells.len());
            let mut out = vec![0u64; cells.len()];
            for step in 0..12 {
                host.next_positions_lockstep(&mut lanes, &mut out);
                for (&(row, col), &got) in cells.iter().zip(&out) {
                    let own: Vec<u64> = f.prober(row, col, mapper, n).take(step + 1).collect();
                    assert_eq!(got, own[step], "{f:?} ({row},{col}) step {step}");
                }
            }
        }
    }

    /// The lane arrays against the scalar `Prober`, cell by cell: one
    /// batch whose keys sit on both sides of every 10ⁿ digit boundary —
    /// runs of equal length, which hash four lanes at a time, broken by
    /// lone keys of another length — through 22 steps of every roster
    /// function alone (t = 0 a roster step, 1–21 re-seeded) and of the
    /// default roster (0–9 roster, 10–21 re-seeded), with lanes
    /// retiring between steps so later steps read a gapped live list.
    /// The survivors' positions are their own cells' sequences.
    #[test]
    fn lanes_of_mixed_key_lengths_match_the_scalar_prober() {
        let mut rows: Vec<u64> = Vec::new();
        for digits in 1..=19u32 {
            let p = 10u64.pow(digits);
            rows.extend([p - 3, p - 2, p - 1, p, p + 1, p + 2, p + 3, p + 4, p + 5]);
            rows.push(p / 2 + 7); // a lone key one digit shorter
        }
        rows.extend([0, u64::MAX, u64::MAX - 1]);
        let mapper = CellMapper::RowOnly;
        let digits = |row: u64| row.to_string().len();
        assert!((1..=20).all(|len| rows.iter().any(|&row| digits(row) == len)));
        let mut families: Vec<HashFamily> = HashKind::ROSTER
            .iter()
            .map(|&kind| HashFamily::Independent(vec![kind]))
            .collect();
        families.push(HashFamily::default_independent());
        for family in &families {
            for n in [1u64 << 20, 1_000_003] {
                let cp = family.col_prober(0, mapper, n);
                let mut lanes = LockstepLanes::new();
                assert_eq!(
                    lanes.open(&cp, rows.iter().map(|&row| (row, 0))),
                    rows.len()
                );
                let mut want: Vec<Prober> = rows
                    .iter()
                    .map(|&row| family.prober(row, 0, mapper, n))
                    .collect();
                let mut out = vec![0u64; rows.len()];
                for t in 0..22u64 {
                    cp.next_positions_lockstep(&mut lanes, &mut out);
                    let live: Vec<usize> = lanes.live().collect();
                    for (j, &lane) in live.iter().enumerate() {
                        let row = rows[lane];
                        assert_eq!(out[j], want[lane].next_position(), "{family:?} {row} t={t}");
                    }
                    // Retire about one lane in ten, a different draw each step.
                    let keep: Vec<bool> = live
                        .iter()
                        .map(|&lane| !splitmix64(lane as u64 ^ t << 16).is_multiple_of(10))
                        .collect();
                    lanes.retain(&keep);
                    let kept = live.iter().zip(&keep).filter(|&(_, &k)| k).map(|(&l, _)| l);
                    assert!(lanes.live().eq(kept));
                }
                assert!(!lanes.is_empty() && lanes.len() < rows.len() / 4);
            }
        }
    }

    /// Windowed lanes against the scalar `Prober`, cell by cell, on
    /// every edge of the window: batches of consecutive rows across a
    /// multiple of 10⁴, across 10⁷ and 10⁸ (prefixes of two text lengths
    /// in one window, which DEK starts from) and, at 10⁸, across 10¹⁵;
    /// exactly 16 prefixes (a window) and 17 (none at 10⁴); keys just
    /// below 10⁴ and 10⁸; two prefixes 16 apart; scattered keys. Every
    /// roster function alone and the default roster run 22 steps (k =
    /// 22: 21 and 12 re-seeded), lanes retiring between steps. Each
    /// batch is checked to open on the window it is meant to exercise,
    /// and its last re-seeded step too: in-order rows stay at 10⁴,
    /// scattered 27-bit keys (no window of their own) fit at 10⁸.
    #[test]
    fn split_lanes_match_the_scalar_prober() {
        let run = |first: u64, stride: u64| -> Vec<u64> {
            (0..LANES as u64).map(|i| first + i * stride).collect()
        };
        let mut two_far: Vec<u64> = run(20_000, 1)[..128].to_vec();
        two_far.extend(&run(180_000, 1)[..128]); // prefixes 2 and 18
        let e8 = 100_000_000;
        let batches: [(&str, Vec<u64>, usize, usize); 15] = [
            ("across a multiple of 10⁴", run(19_900, 1), 4, 4),
            ("across 10⁷", run(10_000_000 - 130, 1), 4, 4),
            ("across 10⁸", run(e8 - 100, 1), 4, 4),
            (
                "across 10¹⁵ at 10⁸",
                run(10u64.pow(15) - 5_000_000, 40_000),
                8,
                8,
            ),
            ("16 prefixes", run(30_000, 625), 4, 8),
            ("17 prefixes", run(30_000, 666), 0, 8),
            ("17 prefixes past 10⁸", run(7 * e8 + 30_000, 666), 8, 8),
            ("just below 10⁴", run(10_000 - LANES as u64, 1), 0, 4),
            ("up to 10⁴", run(9_900, 1), 0, 4),
            ("just below 10⁸", run(e8 - LANES as u64, 1), 4, 4),
            ("across 10⁸, 18 prefixes", run(e8 - 128 * 700, 700), 0, 8),
            ("two prefixes 16 apart", two_far, 0, 8),
            (
                "scattered 27-bit",
                (0..256).map(|i| splitmix64(i) >> 37).collect(),
                0,
                8,
            ),
            (
                "scattered",
                (0..LANES as u64).map(splitmix64).collect(),
                0,
                0,
            ),
            ("one key", vec![123_456_789], 4, 4),
        ];
        let mut families: Vec<HashFamily> = HashKind::ROSTER
            .iter()
            .map(|&kind| HashFamily::Independent(vec![kind]))
            .collect();
        families.push(HashFamily::default_independent());
        for (name, rows, width, reseeded) in &batches {
            for family in &families {
                for n in [1u64 << 20, 1_000_003] {
                    let cp = family.col_prober(0, CellMapper::RowOnly, n);
                    let mut lanes = LockstepLanes::new();
                    lanes.open(&cp, rows.iter().map(|&row| (row, 0)));
                    assert_eq!(lanes.window.width, *width, "{name}");
                    let mut want: Vec<Prober> = rows
                        .iter()
                        .map(|&row| family.prober(row, 0, CellMapper::RowOnly, n))
                        .collect();
                    let mut out = vec![0u64; rows.len()];
                    for t in 0..22u64 {
                        cp.next_positions_lockstep(&mut lanes, &mut out);
                        let live: Vec<usize> = lanes.live().collect();
                        for (j, &lane) in live.iter().enumerate() {
                            let ctx = format!("{name}: {family:?} n={n} row {} t={t}", rows[lane]);
                            assert_eq!(out[j], want[lane].next_position(), "{ctx}");
                        }
                        let keep: Vec<bool> = live
                            .iter()
                            .map(|&lane| !splitmix64(lane as u64 ^ t << 16).is_multiple_of(16))
                            .collect();
                        lanes.retain(&keep);
                    }
                    assert_eq!(lanes.window.width, *reseeded, "{name}: re-seeded");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different family")]
    fn lockstep_rejects_lanes_of_another_family() {
        let roster = HashFamily::default_independent();
        let mut lanes = LockstepLanes::new();
        lanes.open(
            &roster.col_prober(0, CellMapper::RowOnly, 1 << 10),
            [(1, 0)],
        );
        HashFamily::DoubleHashing
            .col_prober(0, CellMapper::RowOnly, 1 << 10)
            .next_positions_lockstep(&mut lanes, &mut [0u64; 1]);
    }

    #[test]
    #[should_panic(expected = "column 16 out of range")]
    fn begin_col_checks_the_column_group_range() {
        let f = HashFamily::ColumnGroup { num_columns: 16 };
        f.col_prober(0, CellMapper::for_columns(16), 1 << 10)
            .begin_col(1, 16);
    }

    #[test]
    #[should_panic(expected = "output buffer shorter")]
    fn next_positions_rejects_short_output() {
        let f = HashFamily::DoubleHashing;
        let cp = f.col_prober(0, CellMapper::RowOnly, 1 << 10);
        let mut probes = vec![cp.begin(1), cp.begin(2)];
        cp.next_positions(&mut probes, &mut [0u64; 1]);
    }

    #[test]
    fn prober_drop_flushes_hash_call_counter() {
        let c = obs::global().counter("hashkit.hash_calls.double_hashing");
        let before = c.get();
        positions(&HashFamily::DoubleHashing, 1, 0, 5, 1 << 10);
        assert!(c.get() >= before + 5, "drop did not flush probe count");
    }

    /// Empirical false-positive sanity: inserting `s` random keys into
    /// an AB of `n = 8s` bits with k=4 via the independent family must
    /// give an FP rate within 2x of theory ((1-e^{-k/8})^k ≈ 0.024).
    #[test]
    fn independent_family_fp_rate_close_to_theory() {
        let f = HashFamily::default_independent();
        let s = 2000u64;
        let n = 8 * s;
        let k = 4;
        let mut bits = vec![false; n as usize];
        let mut buf = Vec::new();
        for row in 0..s {
            f.positions(row, 0, CellMapper::RowOnly, k, n, &mut buf);
            for &p in &buf {
                bits[p as usize] = true;
            }
        }
        let mut fp = 0;
        let probes = 4000u64;
        for row in s..s + probes {
            f.positions(row, 0, CellMapper::RowOnly, k, n, &mut buf);
            if buf.iter().all(|&p| bits[p as usize]) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        let theory = (1.0 - (-(k as f64) / 8.0).exp()).powi(k as i32);
        assert!(
            rate < theory * 2.0 + 0.01,
            "measured FP {rate:.4} vs theory {theory:.4}"
        );
    }
}
