/* The lane kernel (DESIGN.md section 14): layer-1 class pricing and the
   row walk, for the interpreter (Tlm1.Energy, one lane) and for plan
   folds (Compile.Eval, k lanes).

   A lane is one parameter point.  Both loops hold k lanes side by side —
   a toggled wire's k energies, a class's k energies — and go through
   them in blocks of BLOCK lanes, then a remainder of fewer, so any k
   works.  A block's loop over its lanes has a constant trip count and
   no dependence between lanes, so the compiler vectorizes it.

   Exactness: each lane performs exactly the IEEE double additions of the
   one-lane fold, in the same order (bits lowest first within a group,
   each group summed from 0.0, groups joined in addr/be/wdata/rdata/ctrl
   order, rows in cycle order).  Vectorizing across lanes reorders no
   lane's additions, and the kernel only adds.  The file is compiled with
   -ffp-contract=off and without -ffast-math or any -march flag, so no
   addition is reassociated or fused, and it leaves MXCSR as it is.

   Variants: on x86-64 under GCC or Clang the one body below is compiled
   three times — for AVX-512F, for AVX2 and for baseline x86-64 — through
   target attributes on static wrappers, and the widest the CPU supports
   is chosen once, when the library is loaded.  The variants differ only
   in how many lanes one instruction adds; each lane's additions are the
   same IEEE operations, so no result depends on the host.  Every other
   build compiles the body once.

   Neither function allocates or raises: they read only inside their
   arrays and return a status, which the callers turn into
   Invalid_argument.  Each takes at most five arguments, so one C
   function serves the native and the bytecode external. */

#include <stdint.h>
#include <caml/mlvalues.h>

#define BLOCK 16

enum { OK = 0, BAD_SIZE = 1, WIDE_WORD = 2, BAD_CLASS = 3 };

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

#if defined(__GNUC__) || defined(__clang__)
#define ALWAYS_INLINE static inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE static inline
#endif

ALWAYS_INLINE mlsize_t float_len(value v)
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

/* [ws]: CLASS_WORDS words per class; [pj]: wire w of lane l at
   [w * k + l]; class c of lane l goes to [e.(c * k + l)]. */
ALWAYS_INLINE value price_body(value ws, value vpj, value ve, value vk)
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

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#define VARIANT(NAME, TARGET)                                          \
  TARGET static value price_##NAME(value ws, value pj, value e,        \
                                   value k)                            \
  {                                                                    \
    return price_body(ws, pj, e, k);                                   \
  }                                                                    \
  TARGET static value walk_##NAME(value rk, value e, value k,          \
                                  value classes, value tot)            \
  {                                                                    \
    return walk_body(rk, e, k, classes, tot);                          \
  }

VARIANT(base, )
VARIANT(avx2, __attribute__((target("avx2"))))
VARIANT(avx512, __attribute__((target("avx512f"))))

/* Variant 0 is baseline x86-64, 1 AVX2, 2 AVX-512F. */
static const struct {
  value (*price)(value, value, value, value);
  value (*walk)(value, value, value, value, value);
} variants[3] = {
  { price_base, walk_base },
  { price_avx2, walk_avx2 },
  { price_avx512, walk_avx512 },
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

value lane_price_l1(value ws, value pj, value e, value k)
{
  return CHOSEN.price(ws, pj, e, k);
}

value lane_walk(value rk, value e, value k, value classes, value tot)
{
  return CHOSEN.walk(rk, e, k, classes, tot);
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

value lane_price_l1(value ws, value pj, value e, value k)
{
  return price_body(ws, pj, e, k);
}

value lane_walk(value rk, value e, value k, value classes, value tot)
{
  return walk_body(rk, e, k, classes, tot);
}

/* One variant: only 0 (or -1, the default) is accepted. */
value lane_variant(value vv)
{
  int v = Int_val(vv);
  return Val_int(v == 0 || v == -1 ? 0 : -1);
}

#endif
