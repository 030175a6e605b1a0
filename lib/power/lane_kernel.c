/* The lane kernel (DESIGN.md section 14): the interpreters' cycle closes
   (Rtl.Diesel at the gate level, Tlm1.Energy at layer 1: one call per
   cycle that reads the wires, prices, counts and commits) and data lump
   (Tlm2.Energy, one per data phase); for plan folds (Compile.Eval, k
   lanes) layer-1 segment pricing, layer-2 class pricing, the row walk
   and the fabric op-stream fold; and the builder of the segment tables
   the layer-1 plan folds read (Compile.Plan.wires, once per capture).
   It lives in the power library, which every estimator links.

   A lane is one parameter point.  The plan loops hold k lanes side by
   side — a wire's k energies, a segment's, a class's — and go through
   them in blocks of constant width, so the compiler keeps a block in
   vector registers and any k works.

   Plan classes are priced from their segment table (Compile.Plan.wires):
   a segment is one distinct (signal group, toggle word) of the plan, its
   toggled wires lowest first, and every class names five segments, one
   per group in addr/be/wdata/rdata/ctrl order, segment 0 (empty) for a
   quiet group.  The kernel sums every segment once per lane, running
   consecutive segments of equal length side by side as independent
   chains, then joins each class's five sums.  The layer-1 close decodes
   its one cycle's words directly.

   A layer-2 class is one closed cycle's lumps (Compile.Plan.classes):
   each lane adds them onto 0.0 in event order, an address lump as the
   lane's precomputed address lump, a data lump by the one lump formula
   of the paper's layer 2 (DATA_LUMP), which the interpreter's one-lump
   entry runs too.

   The closes hold each running total (the interface and internal
   totals, the meter's in-cycle energy, layer 1's cycle sum) in a
   register and store it once; each still gets the same IEEE additions in
   the same order as the OCaml reference, so no bit changes.

   Exactness: each lane performs exactly the IEEE double additions of the
   interpreter's one-lane fold, in the same order (a group's toggled bits
   lowest first onto 0.0, groups joined onto 0.0 in group order, a
   cycle's lumps onto 0.0 in event order, rows in cycle order, a master's
   ops in stream order).  The segment pricer adds one thing: a quiet
   group joins segment 0's sum, +0.0, which the interpreter skips.  No
   sum that starts at +0.0 ever becomes -0.0, so that addition changes
   nothing; nor does the 0.0 under the interpreter's one lump, which is
   never -0.0.  Vectorizing across lanes or chains reorders no lane's
   additions.  The file is compiled with -ffp-contract=off and without
   -ffast-math or any -march flag, so no operation is reassociated or
   fused, and it leaves MXCSR as it is.

   Variants: on x86-64 under GCC or Clang the bodies below are compiled
   three times — for AVX-512F, for AVX2 and for baseline x86-64 — through
   target attributes on static wrappers, and the widest the CPU supports
   is chosen once, when the library is loaded.  The segment pricer's
   accumulators are vectors of the variant's width (64, 32 or 16 bytes).
   The variants differ only in how many lanes one instruction adds; each
   lane's additions are the same IEEE operations, so no result depends on
   the host.  Every other build compiles the bodies once.

   No loop allocates or raises: each checks every index it reads and
   returns a status, which the callers turn into Invalid_argument (the
   data lump returns NaN, its caller checks the burst first).  Each
   takes at most five arguments, so one C function serves the native and
   the bytecode external, except the op fold and the data lump (an
   unboxed float), which have bytecode stubs.  The closes are scalar and
   not compiled per variant.
   The builder, at the end of the file, allocates its result and raises
   Invalid_argument on a class table it cannot decode. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#define BLOCK 16

enum {
  OK = 0,
  BAD_SIZE = 1,
  WIDE_WORD = 2,
  BAD_CLASS = 3,
  BAD_SEGMENT = 4,
  BAD_OP = 5,
  BAD_LUMP = 6
};

/* The five interface signal groups of Ec.Signals: their widths and the
   dense index of their first wire.  Tlm1.Energy checks these against
   Ec.Signals when it is loaded. */
#define GROUPS 5
#define WIRES 113
static const int width[GROUPS] = { 34, 4, 32, 32, 11 };
static const int base[GROUPS] = { 0, 34, 38, 70, 102 };

/* The six words of a layer-1 class: five group toggles, then the
   controller's selects, which layer 1 does not read. */
#define CLASS_WORDS 6

/* The fields of a Compile.Plan.wires record, in declaration order. */
enum { T_WORDS = 0, T_SEG_OFF = 1, T_SEG_WIRE = 2, T_CLASS_SEG = 3 };

/* The fields of an Rtl.Wires.t record, in declaration order: each
   group's current and next word, addr/be/wdata/rdata/ctrl/sel, then the
   select width.  The closes read the words and commit them by these
   positions (group g's words at 2g and 2g + 1, the selects as group 5);
   a test drives every group alone through both closes and fails if the
   order no longer matches. */
enum { W_FIELDS = 13 };

/* The gate-level close's arrays (Rtl.Diesel).  Tables: wire w's falling
   and rising edge energies at [2w] and [2w + 1]; from G_PAIR, [8w +
   code] the half of the coupling energy of the pair (w, w + 1) that
   each of its wires gets (code bits 0 and 1: which of the two toggled,
   bit 2: whether their new values differ); from G_COST, the internal
   costs per address, read-data, control and select toggle, then the
   leakage per cycle.  Sums: the wires' interface energies, then the
   interface and internal totals.  Counts: the wires' transitions, then
   the words scanned and the bits visited. */
enum {
  G_PAIR = 2 * WIRES, G_COST = 10 * WIRES, G_TABLES = G_COST + 5,
  G_IFACE = WIRES, G_INTERNAL = WIRES + 1, G_SUMS = WIRES + 2,
  G_WORDS = WIRES, G_BITS = WIRES + 1, G_COUNTS = WIRES + 2
};

/* The fields of a Tlm2.Energy.lanes record, in declaration order. */
enum {
  L_ADDR = 0, L_BDT = 1, L_SPB = 2, L_RDATA = 3, L_WDATA = 4, L_CTRL = 5,
  L_FIELDS = 6
};

/* The fields of Compile.Eval's [sampled] record read by the op fold. */
enum { S_IDX = 1, S_E = 2, S_STRIDE = 3, S_LANE = 4 };

/* The segment pricer's lane block: two vectors of the widest variant.
   Its lane energies and segment sums hold this many lanes a wire or a
   segment. */
#define LANES 16

#if defined(__GNUC__) || defined(__clang__)
#define ALWAYS_INLINE static inline __attribute__((always_inline))
/* Unaligned, aliasing vectors of 2, 4 and 8 doubles. */
typedef double v2d __attribute__((vector_size(16), aligned(8), may_alias));
typedef double v4d __attribute__((vector_size(32), aligned(8), may_alias));
typedef double v8d __attribute__((vector_size(64), aligned(8), may_alias));
#define BASE_VEC v2d
#else
#define ALWAYS_INLINE static inline
#define BASE_VEC double
#endif

/* The length of a float array, 0 for any other block (the empty array
   is an atom of tag 0). */
ALWAYS_INLINE mlsize_t float_len(value v)
{
  header_t h = Hd_val(v);
  return Tag_hd(h) == Double_array_tag ? Wosize_hd(h) / Double_wosize : 0;
}

/* Lanes [l, k) in blocks of BLOCK, then the remainder in blocks of 8,
   4, 2 and 1: every block has a constant width, and k = 1 goes straight
   to the one-lane block. */
#define BLOCKS(STEP)                                                 \
  do {                                                               \
    intnat l = 0;                                                    \
    while (l + BLOCK <= k) STEP(BLOCK);                              \
    if (k - l >= 8) STEP(8);                                         \
    if (k - l >= 4) STEP(4);                                         \
    if (k - l >= 2) STEP(2);                                         \
    if (k - l >= 1) STEP(1);                                         \
  } while (0)

/* The wires' six current and next words, each interface word checked
   against its group's width; nonzero if one is wider. */
ALWAYS_INLINE uint64_t read_wires(value vw, uint64_t cur[GROUPS + 1],
                                  uint64_t nxt[GROUPS + 1])
{
  uint64_t wide = 0;
  for (int g = 0; g <= GROUPS; g++) {
    cur[g] = (uint64_t) Long_val(Field(vw, 2 * g));
    nxt[g] = (uint64_t) Long_val(Field(vw, 2 * g + 1));
    if (g < GROUPS) wide |= (cur[g] | nxt[g]) >> width[g];
  }
  return wide;
}

/* Rtl.Wires.commit_all: every next word becomes current.  The words
   are integers, so no write barrier is owed. */
ALWAYS_INLINE void commit_wires(value vw)
{
  for (int g = 0; g <= GROUPS; g++)
    Field(vw, 2 * g) = Field(vw, 2 * g + 1);
}

ALWAYS_INLINE void add_count(value vc, intnat i, intnat n)
{
  Field(vc, i) = Val_long(Long_val(Field(vc, i)) + n);
}

/* The gate-level close (Rtl.Diesel): prices the cycle from the wires'
   [current xor next] words, then commits them.  Each toggled bit of a
   bus, lowest first, adds its edge energy; each adjacent pair of the bus
   that a toggle touches, lowest first, adds its half to the lower then
   the upper wire; the control word adds edge energies only; then the
   internal nets add in address, read-data, control, select order, each
   only when its group toggled, and the leakage always.  Every addend
   goes to its wire's sum (interface ones), to the interface or internal
   total and to the meter's in-cycle energy [m], in that order — the
   reference path's additions in its order, so each accumulator gets the
   same IEEE additions.  The totals and [m] are read once, held in
   registers and stored once.  Refuses short arrays, a record that is not
   a Wires.t, or a word wider than its group, before anything is
   written. */
value lane_close_gate(value vw, value vtab, value vsum, value vm,
                      value vc)
{
  uint64_t cur[GROUPS + 1], nxt[GROUPS + 1];
  if (Wosize_val(vw) != W_FIELDS || float_len(vtab) < G_TABLES
      || float_len(vsum) < G_SUMS || float_len(vm) < 1
      || Wosize_val(vc) < G_COUNTS)
    return Val_int(BAD_SIZE);
  if (read_wires(vw, cur, nxt)) return Val_int(WIDE_WORD);
  const double *edge = (const double *) vtab;
  const double *pair = edge + G_PAIR, *cost = edge + G_COST;
  double *sum = (double *) vsum;
  double iface = sum[G_IFACE], internal = sum[G_INTERNAL];
  double m = *(double *) vm;
  intnat toggles[GROUPS], bits = 0;
  for (int g = 0; g < GROUPS; g++) {
    uint64_t changed = cur[g] ^ nxt[g], next = nxt[g];
    intnat n = 0;
    for (uint64_t x = changed; x; x &= x - 1, n++) {
      int i = __builtin_ctzll(x), w = base[g] + i;
      double pj = edge[2 * w + (int) ((next >> i) & 1)];
      add_count(vc, w, 1);
      sum[w] += pj;
      iface += pj;
      m += pj;
    }
    toggles[g] = n;
    bits += n;
    if (g == GROUPS - 1) break; /* the control wires do not couple */
    uint64_t pairs = ((uint64_t) 1 << (width[g] - 1)) - 1;
    uint64_t differ = next ^ (next >> 1);
    for (uint64_t x = (changed | changed >> 1) & pairs; x; x &= x - 1) {
      int i = __builtin_ctzll(x), w = base[g] + i;
      int code = (int) (((changed >> i) & 3) | ((differ >> i) & 1) << 2);
      double half = pair[8 * w + code];
      sum[w] += half;
      iface += half;
      m += half;
      sum[w + 1] += half;
      iface += half;
      m += half;
      bits++;
    }
  }
  intnat sel = 0;
  for (uint64_t x = cur[GROUPS] ^ nxt[GROUPS]; x; x &= x - 1) sel++;
  const intnat internal_toggles[4] = { toggles[0], toggles[3], toggles[4],
                                       sel };
  for (int j = 0; j < 4; j++)
    if (internal_toggles[j] > 0) {
      double pj = (double) internal_toggles[j] * cost[j];
      internal += pj;
      m += pj;
    }
  internal += cost[4];
  m += cost[4];
  sum[G_IFACE] = iface;
  sum[G_INTERNAL] = internal;
  *(double *) vm = m;
  add_count(vc, G_WORDS, GROUPS + 1);
  add_count(vc, G_BITS, bits);
  commit_wires(vw);
  return Val_int(OK);
}

/* The layer-1 close (Tlm1.Energy): each toggled interface group sums the
   energies [pj] of its toggled wires from 0.0, lowest bit first, and the
   sum joins the cycle's energy, which starts at 0.0 (a quiet group adds
   nothing); the cycle's energy joins the meter's in-cycle energy [m].
   [c.(0)] counts the transitions, [c.(1)] the five words compared.  Then
   the wires are committed, selects too, which layer 1 does not read.
   Refuses as the gate-level close does. */
value lane_close_l1(value vw, value vpj, value vm, value vc)
{
  uint64_t cur[GROUPS + 1], nxt[GROUPS + 1];
  if (Wosize_val(vw) != W_FIELDS || float_len(vpj) < WIRES
      || float_len(vm) < 1 || Wosize_val(vc) < 2)
    return Val_int(BAD_SIZE);
  if (read_wires(vw, cur, nxt)) return Val_int(WIDE_WORD);
  const double *pj = (const double *) vpj;
  double e = 0.0;
  intnat n = 0;
  for (int g = 0; g < GROUPS; g++) {
    uint64_t x = cur[g] ^ nxt[g];
    if (!x) continue;
    const double *gp = pj + base[g];
    double s = 0.0;
    for (; x; x &= x - 1, n++) s += gp[__builtin_ctzll(x)];
    e += s;
  }
  *(double *) vm += e;
  add_count(vc, 0, n);
  add_count(vc, 1, GROUPS);
  commit_wires(vw);
  return Val_int(OK);
}

/* The data lump of the paper's layer 2, for one lane or a vector of
   them: [T], the boundary data toggles plus the burst's inter-beat counts
   added in beat order, times the data-bit average [DV] of its direction,
   plus the strobe pulses — [S] per beat over [BURST] beats, and 4.0 more
   on a burst for its BFirst and BLast pulses — times the control-bit
   average [C].  The plan folds and the interpreter's one-lump entry both
   price a data lump here. */
#define DATA_LUMP(T, DV, S, C, BURST)                                \
  ((T) * (DV) + ((S) * (double) (BURST) + ((BURST) > 1 ? 4.0 : 0.0)) * (C))

/* Layer 2, one lane block of NB vectors of VT, W lanes each, from lane
   [l]: every class adds its lumps onto 0.0 in event order, an address
   lump as the lane's [addr_lump], a data lump as DATA_LUMP.  A block that runs past lane k reads its operands
   from [pad], 0.0 past lane k, and stores only lanes below k.  The class
   table was checked. */
#define L2_BLOCK(VT, NB, W)                                          \
  do {                                                               \
    enum { V = (W) };                                                \
    const VT zero = { 0 };                                           \
    const double *pa = addr + l, *pb = bdt + l, *ps = spb + l;       \
    const double *pr = rdata + l, *pw = wdata + l, *pc = ctrl + l;   \
    double pad[L_FIELDS][(NB) * V];                                  \
    if (l + (NB) * V > k) {                                          \
      const double *src[L_FIELDS] = { pa, pb, ps, pr, pw, pc };      \
      for (int f = 0; f < L_FIELDS; f++)                             \
        for (intnat j = 0; j < (NB) * V; j++)                        \
          pad[f][j] = l + j < k ? src[f][j] : 0.0;                   \
      pa = pad[L_ADDR], pb = pad[L_BDT], ps = pad[L_SPB];            \
      pr = pad[L_RDATA], pw = pad[L_WDATA], pc = pad[L_CTRL];        \
    }                                                                \
    for (intnat c = 0; c < n; c++) {                                 \
      VT a[NB];                                                      \
      for (int b = 0; b < (NB); b++) a[b] = zero;                    \
      intnat i = Long_val(off[c]), end = Long_val(off[c + 1]);       \
      while (i < end) {                                              \
        if (ws[i] == Val_long(0)) {                                  \
          for (int b = 0; b < (NB); b++)                             \
            a[b] += *(const VT *) (pa + b * V);                      \
          i += 3;                                                    \
          continue;                                                  \
        }                                                            \
        intnat burst = Long_val(ws[i + 2]);                          \
        const double *pv = ws[i + 1] == Val_long(0) ? pr : pw;       \
        VT t[NB];                                                    \
        for (int b = 0; b < (NB); b++) t[b] = *(const VT *) (pb + b * V);\
        for (intnat p = i + 3; p < i + 2 + burst; p++) {             \
          double x = (double) Long_val(ws[p]);                       \
          for (int b = 0; b < (NB); b++) t[b] += x;                  \
        }                                                            \
        for (int b = 0; b < (NB); b++)                               \
          a[b] += DATA_LUMP(t[b], *(const VT *) (pv + b * V),        \
                            *(const VT *) (ps + b * V),              \
                            *(const VT *) (pc + b * V), burst);      \
        i += 2 + burst;                                              \
      }                                                              \
      double *out = e + c * k + l;                                   \
      if (l + (NB) * V <= k)                                         \
        for (int b = 0; b < (NB); b++) *(VT *) (out + b * V) = a[b]; \
      else {                                                         \
        double t[(NB) * V];                                          \
        for (int b = 0; b < (NB); b++) *(VT *) (t + b * V) = a[b];   \
        for (int j = 0; j < (NB) * V && j < k - l; j++) out[j] = t[j];\
      }                                                              \
    }                                                                \
    l += (NB) * V;                                                   \
  } while (0)

/* [off]: classes + 1 offsets into [ws], class c at [off.(c)] ..
   [off.(c + 1) - 1]; a lump is an address lump [0; 0; 0] or a data lump
   [1; dir; burst] (dir 0 = read) followed by its burst - 1 inter-beat
   popcounts; [ln]: a Tlm2.Energy.lanes record, k floats an operand;
   class c of lane l goes to [e.(c * k + l)].  The offsets (non-decreasing
   inside [ws]) and every lump (kind 0 or 1, burst at least 1, ending
   inside its class) are checked once, before any lane is priced.  Lanes
   go in blocks of two vectors while more than one vector's worth is
   left, then one block of one vector; k = 1, the interpreter's one lane,
   is one block of one double. */
#define L2_BODY(VT)                                                  \
  do {                                                               \
    enum { VL = sizeof(VT) / sizeof(double) };                       \
    intnat k = Long_val(vk);                                         \
    intnat n = (intnat) Wosize_val(voff) - 1;                        \
    intnat nw = (intnat) Wosize_val(vws);                            \
    if (k < 1 || n < 0 || Wosize_val(vln) < L_FIELDS                 \
        || float_len(ve) < (mlsize_t) n * k)                         \
      return Val_int(BAD_SIZE);                                      \
    for (int f = 0; f < L_FIELDS; f++)                               \
      if (float_len(Field(vln, f)) < (mlsize_t) k)                   \
        return Val_int(BAD_SIZE);                                    \
    const value *off = (const value *) voff;                         \
    const value *ws = (const value *) vws;                           \
    if (l2_bad(off, n, ws, nw)) return Val_int(BAD_LUMP);            \
    const double *addr = (const double *) Field(vln, L_ADDR);        \
    const double *bdt = (const double *) Field(vln, L_BDT);          \
    const double *spb = (const double *) Field(vln, L_SPB);          \
    const double *rdata = (const double *) Field(vln, L_RDATA);      \
    const double *wdata = (const double *) Field(vln, L_WDATA);      \
    const double *ctrl = (const double *) Field(vln, L_CTRL);        \
    double *e = (double *) ve;                                       \
    intnat l = 0;                                                    \
    if (k == 1) L2_BLOCK(double, 1, 1);                              \
    else {                                                           \
      while (k - l > VL) L2_BLOCK(VT, 2, VL);                        \
      if (l < k) L2_BLOCK(VT, 1, VL);                                \
    }                                                                \
    return Val_int(OK);                                              \
  } while (0)

/* Whether a layer-2 class table reads outside itself: offsets that
   decrease or leave [ws], a lump kind other than 0 or 1, a burst below 1
   or one that ends past its class. */
ALWAYS_INLINE int l2_bad(const value *off, intnat n, const value *ws,
                         intnat nw)
{
  for (intnat c = 0, prev = 0; c <= n; c++) {
    intnat o = Long_val(off[c]);
    if (o < prev || o > nw) return 1;
    prev = o;
  }
  for (intnat c = 0; c < n; c++) {
    intnat i = Long_val(off[c]), end = Long_val(off[c + 1]);
    while (i < end) {
      if (end - i < 3) return 1;
      intnat kind = Long_val(ws[i]), burst = Long_val(ws[i + 2]);
      if (kind == 0) i += 3;
      else if (kind == 1 && burst >= 1 && burst <= end - i - 2)
        i += 2 + burst;
      else return 1;
    }
  }
  return 0;
}

/* SWAR popcount: baseline x86-64 has no popcount instruction. */
ALWAYS_INLINE intnat popcount(uint64_t x)
{
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return (intnat) ((x * 0x0101010101010101ull) >> 56);
}

/* The interpreter's data lump (Tlm2.Energy.data_phase_pj), one lane:
   [ln], the lane's six operands in the field order of Tlm2.Energy.lanes;
   [dir], 0 for a read; [data], the burst's words, [burst] of them, whose
   inter-beat counts are the popcounts of consecutive words, taken on
   their tagged values ((2a + 1) xor (2b + 1) = 2 (a xor b)).  Returns the
   one-lump class of L2_BODY at k = 1, 0.0 plus the lump: the same IEEE
   operations in the same order, without a class table to check.  A
   burst below 1 or past [data], or a short [ln], returns NaN before
   anything is read past; the bytecode entry boxes the result. */
double lane_data_lump(value vln, value vdir, value vburst, value vdata)
{
  intnat burst = Long_val(vburst);
  if (float_len(vln) < L_FIELDS || burst < 1
      || (uintnat) burst > Wosize_val(vdata))
    return NAN;
  const double *ln = (const double *) vln;
  const value *d = (const value *) vdata;
  double t = ln[L_BDT];
  for (intnat p = 1; p < burst; p++)
    t += (double) popcount((uint64_t) (d[p] ^ d[p - 1]));
  return 0.0 + DATA_LUMP(t, ln[vdir == Val_long(0) ? L_RDATA : L_WDATA],
                         ln[L_SPB], ln[L_CTRL], burst);
}

value lane_data_lump_byte(value vln, value vdir, value vburst, value vdata)
{
  return caml_copy_double(lane_data_lump(vln, vdir, vburst, vdata));
}

/* The segment pricer, one lane block of NB vectors of VT from lane [l]:
   [a] holds C chains of NB vectors.  C consecutive segments of length
   [len] from segment [sg] — their wires at [wire + o + j * len] — sum
   their wires' energies from 0.0 in wire order, side by side, into [s]
   (segment x of the block at [s + x * NB * V]).  The wires and offsets
   were checked. */
#define CHAINS(VT, NB, C)                                            \
  do {                                                               \
    VT a[C][NB];                                                     \
    for (int j = 0; j < (C); j++)                                    \
      for (int b = 0; b < (NB); b++) a[j][b] = zero;                 \
    const unsigned char *w = wire + o;                               \
    for (intnat i = 0; i < len; i++)                                 \
      for (int j = 0; j < (C); j++) {                                \
        const double *p = pb + w[j * len + i] * LANES;               \
        for (int b = 0; b < (NB); b++)                               \
          a[j][b] += *(const VT *) (p + b * V);                      \
      }                                                              \
    for (int j = 0; j < (C); j++)                                    \
      for (int b = 0; b < (NB); b++)                                 \
        *(VT *) (s + (sg + j) * (NB) * V + b * V) = a[j][b];         \
    sg += (C);                                                       \
  } while (0)

/* One lane block: every segment's sums, in runs of equal length taken
   four, two or one at a time, then every class, its five segment sums
   added onto 0.0 in group order.  Lanes at and past k are computed
   from pj's padding and never stored. */
#define SEGMENT_BLOCK(VT, NB)                                        \
  do {                                                               \
    if (l % LANES == 0)                                              \
      memcpy(pa, pj + l * WIRES, sizeof pa);                         \
    const double *pb = pa + l % LANES;                               \
    intnat sg = 0;                                                   \
    while (sg < nseg) {                                              \
      intnat o = Long_val(off[sg]);                                  \
      intnat len = Long_val(off[sg + 1]) - o;                        \
      if (o < 0 || len < 0 || o + len > nwire)                       \
        return Val_int(BAD_SEGMENT);                                 \
      intnat run = 1;                                                \
      while (run < 4 && sg + run < nseg                              \
             && Long_val(off[sg + run + 1]) == o + (run + 1) * len   \
             && o + (run + 1) * len <= nwire)                        \
        run++;                                                       \
      if (run == 4) CHAINS(VT, NB, 4);                               \
      else if (run >= 2) CHAINS(VT, NB, 2);                          \
      else CHAINS(VT, NB, 1);                                        \
    }                                                                \
    for (mlsize_t c = 0; c < n; c++) {                               \
      VT a[NB];                                                      \
      for (int b = 0; b < (NB); b++) a[b] = zero;                    \
      for (int g = 0; g < GROUPS; g++) {                             \
        const double *p = s + Long_val(cs[c * GROUPS + g]) * (NB) * V;\
        for (int b = 0; b < (NB); b++)                               \
          a[b] += *(const VT *) (p + b * V);                         \
      }                                                              \
      double *out = e + c * k + l;                                   \
      if (l + (NB) * V <= k)                                         \
        for (int b = 0; b < (NB); b++) *(VT *) (out + b * V) = a[b]; \
      else {                                                         \
        double t[(NB) * V];                                          \
        for (int b = 0; b < (NB); b++) *(VT *) (t + b * V) = a[b];   \
        for (int j = 0; j < (NB) * V && j < k - l; j++) out[j] = t[j];\
      }                                                              \
    }                                                                \
    l += (NB) * V;                                                   \
  } while (0)

/* [vt]: a Compile.Plan.wires record; [pj]: the lanes in blocks of
   LANES, lane l of wire w at [(l / LANES * WIRES + w) * LANES + l mod
   LANES], lanes k and up padding; [s]: scratch, LANES floats per
   segment and 8 more; class c of lane l goes to [e.(c * k + l)].  Every
   wire and class segment id is checked before the sums read any: a
   pass over each array that the compiler vectorizes.  Lanes go in
   blocks of two vectors while more than one vector's worth is left,
   then one block of one; no block crosses a multiple of LANES.  Each
   LANES-lane block of [pj] is copied to a 64-byte aligned buffer, and
   the sums start at the first 64-byte boundary of [s], so no vector
   load or store of either splits a cache line. */
#define SEGMENTS_BODY(VT)                                            \
  do {                                                               \
    enum { V = sizeof(VT) / sizeof(double) };                        \
    const VT zero = { 0 };                                           \
    intnat k = Long_val(vk);                                         \
    value voff = Field(vt, T_SEG_OFF), vwire = Field(vt, T_SEG_WIRE);\
    value vcs = Field(vt, T_CLASS_SEG);                              \
    const value *off = (const value *) voff;                         \
    const unsigned char *wire = Bytes_val(vwire);                    \
    const value *cs = (const value *) vcs;                           \
    mlsize_t n = Wosize_val(Field(vt, T_WORDS)) / CLASS_WORDS;       \
    intnat nseg = (intnat) Wosize_val(voff) - 1;                     \
    intnat nwire = (intnat) caml_string_length(vwire);               \
    if (k < 1 || nseg < 1 || Wosize_val(vcs) != n * GROUPS           \
        || float_len(vpj)                                            \
             < (mlsize_t) ((k + LANES - 1) / LANES * WIRES * LANES)  \
        || float_len(vs) < (mlsize_t) nseg * LANES + 8               \
        || float_len(ve) < n * k)                                    \
      return Val_int(BAD_SIZE);                                      \
    uintnat bad = 0;                                                 \
    for (intnat i = 0; i < nwire; i++)                               \
      bad |= wire[i] >= WIRES;                                       \
    for (mlsize_t i = 0; i < n * GROUPS; i++)                        \
      bad |= (uintnat) cs[i] >= (uintnat) Val_long(nseg);            \
    if (bad) return Val_int(BAD_SEGMENT);                            \
    const double *pj = (const double *) vpj;                         \
    _Alignas(64) double pa[WIRES * LANES];                           \
    double *s = (double *) (((uintptr_t) vs + 63) & ~(uintptr_t) 63);\
    double *e = (double *) ve;                                       \
    intnat l = 0;                                                    \
    while (k - l > V) SEGMENT_BLOCK(VT, 2);                          \
    if (l < k) SEGMENT_BLOCK(VT, 1);                                 \
    return Val_int(OK);                                              \
  } while (0)

/* Each of the N lanes of a block adds its energy of every row's class,
   rows in order, onto 0.0; [classes] bounds the row class ids. */
#define WALK(N)                                                      \
  do {                                                               \
    double a[N] = { 0.0 };                                           \
    for (mlsize_t r = 0; r < rows; r++) {                            \
      intnat c = Long_val(Field(rk, r));                             \
      if (c < 0 || c >= classes) return Val_int(BAD_CLASS);          \
      const double *p = e + c * k + l;                               \
      for (int j = 0; j < (N); j++) a[j] += p[j];                    \
    }                                                                \
    for (int j = 0; j < (N); j++) tot[l + j] = a[j];                 \
    l += (N);                                                        \
  } while (0)

/* [rk]: each row's class; [e]: class c of lane l at [c * k + l]; lane
   l's total goes to [totals.(l)]. */
ALWAYS_INLINE value walk_body(value rk, value ve, value vk, value vclasses,
                              value vtot)
{
  intnat k = Long_val(vk), classes = Long_val(vclasses);
  mlsize_t rows = Wosize_val(rk);
  if (k < 1 || classes < 0 || float_len(ve) < (mlsize_t) classes * k
      || float_len(vtot) < (mlsize_t) k)
    return Val_int(BAD_SIZE);
  const double *e = (const double *) ve;
  double *tot = (double *) vtot;
  BLOCKS(WALK);
  return Val_int(OK);
}

/* A sampled bus as the op fold reads it: lane l's energy of closed cycle
   c at [e[idx[c] * stride + l * lane]], lane 0 or 1. */
struct bus {
  const value *idx;
  const double *e;
  intnat cycles, len, stride, lane;
};

ALWAYS_INLINE struct bus bus_of(value v)
{
  struct bus b;
  b.idx = (const value *) Field(v, S_IDX);
  b.cycles = (intnat) Wosize_val(Field(v, S_IDX));
  b.e = (const double *) Field(v, S_E);
  b.len = (intnat) float_len(Field(v, S_E));
  b.stride = Long_val(Field(v, S_STRIDE));
  b.lane = Long_val(Field(v, S_LANE));
  return b;
}

/* Each of the N lanes of a block adds, op by op in stream order, what
   the op adds onto its master's bucket, from 0.0: a sampled cycle's
   energy, or [cross * burst] for a bridge crossing. */
#define OPS(N)                                                       \
  do {                                                               \
    double a[N] = { 0.0 };                                           \
    for (intnat i = lo; i < hi; i++) {                               \
      intnat kind = Long_val(Field(vkind, i));                       \
      intnat arg = Long_val(Field(varg, i));                         \
      if (kind == 0 || kind == 1) {                                  \
        const struct bus *b = kind == 0 ? &near : &far;              \
        if (arg < 0 || arg >= b->cycles) return Val_int(BAD_OP);     \
        intnat c = Long_val(b->idx[arg]);                            \
        intnat at = c * b->stride + l * b->lane;                     \
        if (c < 0 || at < 0                                          \
            || at + ((N) - 1) * b->lane >= b->len)                   \
          return Val_int(BAD_OP);                                    \
        const double *p = b->e + at;                                 \
        if (b->lane)                                                 \
          for (int j = 0; j < (N); j++) a[j] += p[j];                \
        else                                                         \
          for (int j = 0; j < (N); j++) a[j] += p[0];                \
      } else {                                                       \
        double x = cross * (double) arg;                             \
        for (int j = 0; j < (N); j++) a[j] += x;                     \
      }                                                              \
    }                                                                \
    for (int j = 0; j < (N); j++) out[(l + j) * masters + m] = a[j]; \
    l += (N);                                                        \
  } while (0)

/* [kind], [arg]: the op streams, master m's at [off.(m)] ..
   [off.(m + 1) - 1]; kinds 0 and 1 sample the near and far bus, 2 is a
   crossing of [arg] beats at [cross] pJ a beat; [near], [far]: sampled
   records; lane l's bucket of master m goes to [out.(l * masters + m)]. */
ALWAYS_INLINE value ops_body(value vkind, value varg, value voff,
                             value vnear, value vfar, value vcross,
                             value vk, value vout)
{
  intnat k = Long_val(vk);
  intnat masters = (intnat) Wosize_val(voff) - 1;
  intnat ops = (intnat) (Wosize_val(vkind) < Wosize_val(varg)
                           ? Wosize_val(vkind) : Wosize_val(varg));
  if (k < 1 || masters < 0
      || float_len(vout) < (mlsize_t) masters * (mlsize_t) k)
    return Val_int(BAD_SIZE);
  struct bus near = bus_of(vnear), far = bus_of(vfar);
  double cross = Double_val(vcross);
  double *out = (double *) vout;
  for (intnat m = 0; m < masters; m++) {
    intnat lo = Long_val(Field(voff, m)), hi = Long_val(Field(voff, m + 1));
    if (lo < 0 || lo > hi || hi > ops) return Val_int(BAD_OP);
    BLOCKS(OPS);
  }
  return Val_int(OK);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#define VARIANT(NAME, TARGET, VT)                                      \
  TARGET static value l2_##NAME(value voff, value vws, value vln,      \
                                value ve, value vk)                  \
  {                                                                    \
    L2_BODY(VT);                                                       \
  }                                                                    \
  TARGET static value segments_##NAME(value vt, value vpj, value vs,   \
                                      value ve, value vk)              \
  {                                                                    \
    SEGMENTS_BODY(VT);                                                 \
  }                                                                    \
  TARGET static value walk_##NAME(value rk, value e, value k,          \
                                  value classes, value tot)            \
  {                                                                    \
    return walk_body(rk, e, k, classes, tot);                          \
  }                                                                    \
  TARGET static value ops_##NAME(value kind, value arg, value off,     \
                                 value near, value far, value cross,   \
                                 value k, value out)                   \
  {                                                                    \
    return ops_body(kind, arg, off, near, far, cross, k, out);         \
  }

VARIANT(base, , v2d)
VARIANT(avx2, __attribute__((target("avx2"))), v4d)
VARIANT(avx512, __attribute__((target("avx512f"))), v8d)

/* Variant 0 is baseline x86-64, 1 AVX2, 2 AVX-512F. */
static const struct {
  value (*l2)(value, value, value, value, value);
  value (*segments)(value, value, value, value, value);
  value (*walk)(value, value, value, value, value);
  value (*ops)(value, value, value, value, value, value, value, value);
} variants[3] = {
  { l2_base, segments_base, walk_base, ops_base },
  { l2_avx2, segments_avx2, walk_avx2, ops_avx2 },
  { l2_avx512, segments_avx512, walk_avx512, ops_avx512 },
};

static int chosen;

static int supported(int v)
{
  __builtin_cpu_init();
  switch (v) {
  case 0: return 1;
  case 1: return __builtin_cpu_supports("avx2");
  case 2: return __builtin_cpu_supports("avx512f");
  default: return 0;
  }
}

static int widest(void)
{
  return supported(2) ? 2 : supported(1) ? 1 : 0;
}

__attribute__((constructor)) static void choose(void)
{
  chosen = widest();
}

#define CHOSEN variants[__atomic_load_n(&chosen, __ATOMIC_RELAXED)]

value lane_price_l2(value off, value ws, value ln, value e, value k)
{
  return CHOSEN.l2(off, ws, ln, e, k);
}

value lane_price_segments(value vt, value pj, value s, value e, value k)
{
  return CHOSEN.segments(vt, pj, s, e, k);
}

value lane_walk(value rk, value e, value k, value classes, value tot)
{
  return CHOSEN.walk(rk, e, k, classes, tot);
}

value lane_fold_ops(value kind, value arg, value off, value near,
                    value far, value cross, value k, value out)
{
  return CHOSEN.ops(kind, arg, off, near, far, cross, k, out);
}

/* For the tests only, which declare it as an external: [v] in 0..2
   forces that variant if the CPU supports it and returns [v], else
   returns -1 and changes nothing; -1 restores the CPU's choice and
   returns it. */
value lane_variant(value vv)
{
  int v = Int_val(vv);
  if (v == -1) v = widest();
  else if (!supported(v)) return Val_int(-1);
  __atomic_store_n(&chosen, v, __ATOMIC_RELAXED);
  return Val_int(v);
}

#else

value lane_price_l2(value voff, value vws, value vln, value ve, value vk)
{
  L2_BODY(BASE_VEC);
}

value lane_price_segments(value vt, value vpj, value vs, value ve,
                          value vk)
{
  SEGMENTS_BODY(BASE_VEC);
}

value lane_walk(value rk, value e, value k, value classes, value tot)
{
  return walk_body(rk, e, k, classes, tot);
}

value lane_fold_ops(value kind, value arg, value off, value near,
                    value far, value cross, value k, value out)
{
  return ops_body(kind, arg, off, near, far, cross, k, out);
}

/* One variant: only 0 (or -1, the default) is accepted. */
value lane_variant(value vv)
{
  int v = Int_val(vv);
  return Val_int(v == 0 || v == -1 ? 0 : -1);
}

#endif

/* The op fold's bytecode entry: eight arguments come as an array. */
value lane_fold_ops_byte(value *argv, int argn)
{
  (void) argn;
  return lane_fold_ops(argv[0], argv[1], argv[2], argv[3], argv[4],
                       argv[5], argv[6], argv[7]);
}

/* The segment table of a class table (Compile.Plan.wires), built at
   capture.  Distinct (group, word) pairs get ids from 1 in first
   occurrence order through an open-addressing table keyed
   [word << 3 | group] (at most half full); a counting sort by popcount
   gives the final order, which keeps first occurrence within a length,
   after segment 0, the empty one.  The scratch is C memory, freed before
   returning, so a capture leaves no garbage on the OCaml heap beyond the
   three arrays it returns: (seg_off, seg_wire, class_seg).  A word
   wider than its group, or a table not six words a class, raises
   Invalid_argument before anything is allocated. */
value lane_build_segments(value vwords)
{
  CAMLparam1(vwords);
  CAMLlocal4(voff, vwire, vcs, res);
  mlsize_t len = Wosize_val(vwords), n = len / CLASS_WORDS, groups;
  if (len % CLASS_WORDS)
    caml_invalid_argument("Compile.Plan.wires: not six words per class");
  for (mlsize_t c = 0; c < n; c++)
    for (int g = 0; g < GROUPS; g++)
      if ((uint64_t) Long_val(Field(vwords, c * CLASS_WORDS + g)) >> width[g])
        caml_invalid_argument(
          "Compile.Plan.wires: class word wider than its group");
  groups = n * GROUPS;
  int bits = 10;
  while (((mlsize_t) 1 << bits) < 2 * (groups + 1)) bits++;
  size_t cap = (size_t) 1 << bits, mask = cap - 1;
  uint32_t *slot = calloc(cap, sizeof *slot);
  uint64_t *key = malloc((groups + 1) * sizeof *key);
  uint32_t *id = malloc((groups + 1) * sizeof *id);
  if (!slot || !key || !id) {
    free(slot);
    free(key);
    free(id);
    caml_raise_out_of_memory();
  }
  uint32_t nseg = 1;
  for (mlsize_t i = 0; i < groups; i++) {
    uint64_t w = (uint64_t) Long_val(
      Field(vwords, i / GROUPS * CLASS_WORDS + i % GROUPS));
    id[i] = 0;
    if (!w) continue;
    uint64_t k = w << 3 | (i % GROUPS);
    size_t h = (size_t) ((k * 0x9E3779B97F4A7C15ull) >> (64 - bits));
    while (slot[h] && key[slot[h]] != k) h = (h + 1) & mask;
    if (!slot[h]) {
      slot[h] = nseg;
      key[nseg++] = k;
    }
    id[i] = slot[h];
  }
  /* [slot] now maps a first-occurrence id to its final id, [start] the
     next final id of each length, [total] the wires of all segments. */
  mlsize_t start[36] = { 0 }, total = 0;
  for (uint32_t x = 1; x < nseg; x++) {
    int l = __builtin_popcountll(key[x] >> 3);
    start[l + 1]++;
    total += l;
  }
  start[0] = 1;
  for (int l = 1; l < 36; l++) start[l] += start[l - 1];
  for (uint32_t x = 1; x < nseg; x++)
    slot[x] = (uint32_t) start[__builtin_popcountll(key[x] >> 3)]++;
  voff = caml_alloc(nseg + 1, 0);
  vwire = caml_alloc_string(total);
  vcs = caml_alloc(groups, 0);
  /* The offsets from the lengths, then each segment's wires lowest bit
     first. */
  uintnat *lens = (uintnat *) calloc(nseg + 1, sizeof *lens);
  if (!lens) {
    free(slot);
    free(key);
    free(id);
    caml_raise_out_of_memory();
  }
  for (uint32_t x = 1; x < nseg; x++)
    lens[slot[x] + 1] = __builtin_popcountll(key[x] >> 3);
  for (uint32_t x = 1; x <= nseg; x++) lens[x] += lens[x - 1];
  unsigned char *wire = Bytes_val(vwire);
  for (uint32_t x = 1; x < nseg; x++) {
    int g = (int) (key[x] & 7);
    unsigned char *o = wire + lens[slot[x]];
    for (uint64_t b = key[x] >> 3; b; b &= b - 1)
      *o++ = (unsigned char) (base[g] + __builtin_ctzll(b));
  }
  /* Integers over the Val_unit that caml_alloc wrote: neither value is
     a pointer, so no write barrier is owed. */
  for (uint32_t x = 0; x <= nseg; x++)
    Field(voff, x) = Val_long(lens[x]);
  for (mlsize_t i = 0; i < groups; i++)
    Field(vcs, i) = Val_long(id[i] ? slot[id[i]] : 0);
  free(slot);
  free(key);
  free(id);
  free(lens);
  res = caml_alloc_tuple(3);
  Store_field(res, 0, voff);
  Store_field(res, 1, vwire);
  Store_field(res, 2, vcs);
  CAMLreturn(res);
}
