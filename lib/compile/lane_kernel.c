/* The k-lane loops of Compile.Eval (DESIGN.md section 14): layer-1 class
   pricing and the row walk.

   A lane is one parameter point.  Both loops hold k lanes side by side —
   a toggled wire's k energies, a class's k energies — and go through
   them in blocks of BLOCK lanes, then a remainder of fewer, so any k
   works.  A block's loop over its lanes has a constant trip count and
   no dependence between lanes, so the compiler vectorizes it.

   Exactness: each lane performs exactly the IEEE double additions of the
   one-lane fold, in the same order (bits lowest first within a group,
   each group summed from 0.0, groups joined in addr/be/wdata/rdata/ctrl
   order, rows in cycle order).  Vectorizing across lanes reorders no
   lane's additions.  The file is compiled with -ffp-contract=off and
   without -ffast-math or any -march flag, so no addition is reassociated
   or fused and the result does not depend on the instruction set.

   Neither function allocates or raises: they read only inside their
   arrays and return a status, which Compile.Eval turns into
   Invalid_argument.  Each takes at most five arguments, so one C
   function serves the native and the bytecode external. */

#include <stdint.h>
#include <caml/mlvalues.h>

#define BLOCK 16

enum { OK = 0, BAD_SIZE = 1, WIDE_WORD = 2, BAD_CLASS = 3 };

/* The five interface signal groups of Ec.Signals: their widths and the
   dense index of their first wire.  Compile.Eval checks these against
   Ec.Signals when it is loaded. */
#define GROUPS 5
#define WIRES 113
static const int width[GROUPS] = { 34, 4, 32, 32, 11 };
static const int base[GROUPS] = { 0, 34, 38, 70, 102 };

/* The six words of a layer-1 class: five group toggles, then the
   controller's selects, which layer 1 does not read. */
#define CLASS_WORDS 6

static mlsize_t float_len(value v)
{
  return Wosize_val(v) == 0 || Tag_val(v) != Double_array_tag
           ? 0
           : Wosize_val(v) / Double_wosize;
}

/* One class over the N lanes [l, l + N): each group that toggled sums
   the lanes' energies of its set wires from 0.0, lowest bit first, and
   the sum joins the class energy, which starts at 0.0; a quiet group
   adds nothing.  N is a constant at every use, so the sums stay in
   registers. */
#define PRICE(N)                                                     \
  do {                                                               \
    const double *lp = pj + l;                                       \
    double acc[N] = { 0.0 };                                         \
    for (int g = 0; g < GROUPS; g++) {                               \
      uint64_t bits = word[g];                                       \
      if (!bits) continue;                                           \
      const double *gp = lp + base[g] * k;                           \
      double s[N] = { 0.0 };                                         \
      for (; bits; bits &= bits - 1) {                               \
        const double *p = gp + __builtin_ctzll(bits) * k;            \
        for (int j = 0; j < (N); j++) s[j] += p[j];                  \
      }                                                              \
      for (int j = 0; j < (N); j++) acc[j] += s[j];                  \
    }                                                                \
    for (int j = 0; j < (N); j++) e[c * k + l + j] = acc[j];         \
    l += (N);                                                        \
  } while (0)

/* Lanes [l, k) in blocks of BLOCK, then the remainder in blocks of 8,
   4, 2 and 1: every block has a constant width. */
#define BLOCKS(STEP)                                                 \
  do {                                                               \
    intnat l = 0;                                                    \
    while (l + BLOCK <= k) STEP(BLOCK);                              \
    if (k - l >= 8) STEP(8);                                         \
    if (k - l >= 4) STEP(4);                                         \
    if (k - l >= 2) STEP(2);                                         \
    if (k - l >= 1) STEP(1);                                         \
  } while (0)

/* [ws]: CLASS_WORDS words per class; [pj]: wire w of lane l at
   [w * k + l]; class c of lane l goes to [e.(c * k + l)]. */
value compile_price_l1(value ws, value vpj, value ve, value vk)
{
  intnat k = Long_val(vk);
  mlsize_t n = Wosize_val(ws) / CLASS_WORDS;
  if (k < 1 || float_len(vpj) < (mlsize_t) WIRES * k
      || float_len(ve) < n * k)
    return Val_int(BAD_SIZE);
  const double *pj = (const double *) vpj;
  double *e = (double *) ve;
  uint64_t word[GROUPS];
  for (mlsize_t c = 0; c < n; c++) {
    for (int g = 0; g < GROUPS; g++) {
      word[g] = (uint64_t) Long_val(Field(ws, c * CLASS_WORDS + g));
      if (word[g] >> width[g]) return Val_int(WIDE_WORD);
    }
    BLOCKS(PRICE);
  }
  return Val_int(OK);
}

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
value compile_walk(value rk, value ve, value vk, value vclasses, value vtot)
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
