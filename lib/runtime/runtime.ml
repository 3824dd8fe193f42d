module R = Isa.Reg
module I = Isa.Insn

(* --- hand-assembled modules --- *)

(* Program startup: establish GP, call main through the GAT (it is in
   another module, so the general convention applies), then exit with
   main's return value. *)
let build_crt0 () =
  let m = Minic.Masm.create "crt0.o" in
  let entry = Minic.Masm.fresh_label m in
  let lo = Minic.Masm.fresh_id m in
  let gl = Minic.Masm.fresh_id m in
  let items =
    [ Minic.Masm.Label entry;
      Minic.Masm.Gpsetup_hi { base = R.pv; anchor = entry; lo };
      Minic.Masm.Gpsetup_lo { id = lo };
      Minic.Masm.Gatload { id = gl; ra = R.pv; entry = Objfile.Gat_entry.addr "main" };
      Minic.Masm.Lituse
        { insn = I.Jump { kind = I.Jsr; ra = R.ra; rb = R.pv; hint = 0 };
          load = gl;
          jsr = true };
      Minic.Masm.Insn (I.mov R.v0 R.a0);
      Minic.Masm.Insn (I.Lda { ra = R.v0; rb = R.zero; disp = 0 });
      Minic.Masm.Insn (I.Call_pal 0x83) ]
  in
  Minic.Masm.add_proc m ~name:"__start" items;
  Minic.Masm.assemble m

(* System-call stubs: tiny leaf procedures that never touch the GP. *)
let build_sys () =
  let m = Minic.Masm.create "sys.o" in
  let stub name code =
    Minic.Masm.add_proc m ~name
      [ Minic.Masm.Insn (I.Lda { ra = R.v0; rb = R.zero; disp = code });
        Minic.Masm.Insn (I.Call_pal 0x83);
        Minic.Masm.Insn (I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 1 }) ]
  in
  stub "io_putint" 1;
  stub "io_putchar" 2;
  stub "sys_puts" 3;
  stub "__sbrk" 4;
  Minic.Masm.assemble m

(* --- minic library modules --- *)

let div_src = {|
// Integer division and remainder, C semantics (truncation toward zero);
// division by zero yields 0 (and remainder yields the dividend).
// Shift-and-subtract long division; the scan compares (a >> sh) >= b
// rather than shifting b up, so no intermediate value can overflow.
func __divq(a, b) {
  if (b == 0) { return 0; }
  var neg = 0;
  if (a < 0) { a = 0 - a; neg = 1 - neg; }
  if (b < 0) { b = 0 - b; neg = 1 - neg; }
  var sh = 0;
  while ((a >> (sh + 1)) >= b) { sh = sh + 1; }
  var q = 0;
  while (sh >= 0) {
    if ((a >> sh) >= b) {
      a = a - (b << sh);
      q = q + (1 << sh);
    }
    sh = sh - 1;
  }
  if (neg) { q = 0 - q; }
  return q;
}

func __remq(a, b) {
  if (b == 0) { return a; }
  var neg = 0;
  if (a < 0) { a = 0 - a; neg = 1; }
  if (b < 0) { b = 0 - b; }
  var sh = 0;
  while ((a >> (sh + 1)) >= b) { sh = sh + 1; }
  while (sh >= 0) {
    if ((a >> sh) >= b) { a = a - (b << sh); }
    sh = sh - 1;
  }
  if (neg) { a = 0 - a; }
  return a;
}
|}

let io_src = {|
extern func io_putchar(c);
extern func io_putint(x);

// Quad-strings: one character per quadword, zero-terminated.
func io_puts(p) {
  var i = 0;
  while (p[i] != 0) {
    io_putchar(p[i]);
    i = i + 1;
  }
  return i;
}

func io_newline() {
  io_putchar(10);
  return 0;
}

func io_putint_nl(x) {
  io_putint(x);
  io_putchar(10);
  return 0;
}

// label, value, newline — the workhorse of benchmark output
func io_put_labeled(p, x) {
  io_puts(p);
  io_putchar(61);  // '='
  io_putint(x);
  io_putchar(10);
  return 0;
}
|}

let str_src = {|
func qlen(p) {
  var i = 0;
  while (p[i] != 0) { i = i + 1; }
  return i;
}

func qcmp(a, b) {
  var i = 0;
  while (a[i] != 0 && a[i] == b[i]) { i = i + 1; }
  return a[i] - b[i];
}

func qcpy(dst, src) {
  var i = 0;
  while (src[i] != 0) {
    dst[i] = src[i];
    i = i + 1;
  }
  dst[i] = 0;
  return i;
}

func qset(p, v, n) {
  var i = 0;
  while (i < n) {
    p[i] = v;
    i = i + 1;
  }
  return n;
}

func qmove(dst, src, n) {
  var i = 0;
  while (i < n) {
    dst[i] = src[i];
    i = i + 1;
  }
  return n;
}
|}

let math_src = {|
extern func __divq(a, b);

func iabs(x) {
  if (x < 0) { return 0 - x; }
  return x;
}

func imin(a, b) { if (a < b) { return a; } return b; }
func imax(a, b) { if (a > b) { return a; } return b; }

func ipow(base, e) {
  var r = 1;
  while (e > 0) {
    if (e & 1) { r = r * base; }
    base = base * base;
    e = e >> 1;
  }
  return r;
}

func isqrt(x) {
  if (x < 2) { return x; }
  // Newton iteration with the standard monotone stopping rule
  var r = x;
  var y = (r + 1) >> 1;
  while (y < r) {
    r = y;
    y = (r + x / r) >> 1;
  }
  return r;
}

func gcd(a, b) {
  a = iabs(a);
  b = iabs(b);
  while (b != 0) {
    var t = a % b;
    a = b;
    b = t;
  }
  return a;
}

// 16.16 fixed point
const FXONE = 65536;

func fx_of_int(x) { return x << 16; }
func fx_to_int(x) { return x >> 16; }
func fx_mul(a, b) { return (a * b) >> 16; }
func fx_div(a, b) { return __divq(a << 16, b); }

func fx_sqrt(x) {
  if (x <= 0) { return 0; }
  return isqrt(x) << 8;
}

// exp(x) by 8-term Taylor series around 0 (x in fixed point)
func fx_exp(x) {
  var term = FXONE;
  var sum = FXONE;
  var k = 1;
  while (k <= 8) {
    term = fx_mul(term, fx_div(x, k << 16));
    sum = sum + term;
    k = k + 1;
  }
  return sum;
}

// sin(x) by 5-term alternating series
func fx_sin(x) {
  var x2 = fx_mul(x, x);
  var term = x;
  var sum = x;
  var k = 1;
  while (k <= 5) {
    term = 0 - fx_mul(term, fx_div(x2, ((2 * k) * (2 * k + 1)) << 16));
    sum = sum + term;
    k = k + 1;
  }
  return sum;
}

func fx_cos(x) {
  var x2 = fx_mul(x, x);
  var term = FXONE;
  var sum = FXONE;
  var k = 1;
  while (k <= 5) {
    term = 0 - fx_mul(term, fx_div(x2, ((2 * k - 1) * (2 * k)) << 16));
    sum = sum + term;
    k = k + 1;
  }
  return sum;
}
|}

let rand_src = {|
var __rand_state = 88172645463325252;

func srand(s) {
  if (s == 0) { s = 1; }
  __rand_state = s;
  return 0;
}

// xorshift64* — the multiplier is a 64-bit literal, so it lives in the
// literal pool next to the global addresses.
func randq() {
  var x = __rand_state;
  x = x ^ (x << 13);
  x = x ^ ((x >> 7) & 0x1FFFFFFFFFFFFFF);
  x = x ^ (x << 17);
  __rand_state = x;
  var r = x * 0x2545F4914F6CDD1D;
  return (r >> 1) & 0x3FFFFFFFFFFFFFFF;
}

func rand_range(n) {
  if (n <= 0) { return 0; }
  return randq() % n;
}
|}

let alloc_src = {|
extern func __sbrk(n);

var __alloc_total = 0;

// Bump allocation of n quadwords; storage is never reclaimed.
func alloc(nwords) {
  if (nwords < 1) { nwords = 1; }
  __alloc_total = __alloc_total + nwords;
  return __sbrk(nwords * 8);
}

func alloc_bytes(n) {
  return alloc((n + 7) >> 3);
}

func alloc_total() {
  return __alloc_total;
}
|}

let sort_src = {|
func sort_quads(a, n) {
  var i = 1;
  while (i < n) {
    var key = a[i];
    var j = i - 1;
    var moving = 1;
    while (moving) {
      if (j >= 0) {
        if (a[j] > key) {
          a[j + 1] = a[j];
          j = j - 1;
        } else { moving = 0; }
      } else { moving = 0; }
    }
    a[j + 1] = key;
    i = i + 1;
  }
  return n;
}

func bsearch_quads(a, n, key) {
  var lo = 0;
  var hi = n - 1;
  while (lo <= hi) {
    var mid = (lo + hi) >> 1;
    if (a[mid] == key) { return mid; }
    if (a[mid] < key) { lo = mid + 1; }
    else { hi = mid - 1; }
  }
  return 0 - 1;
}

// map a procedure over an array: calls through a procedure variable,
// which the link-time optimizer cannot see through
func apply_fn(a, n, f) {
  var i = 0;
  while (i < n) {
    a[i] = f(a[i]);
    i = i + 1;
  }
  return n;
}

func fold_fn(a, n, f, acc) {
  var i = 0;
  while (i < n) {
    acc = f(acc, a[i]);
    i = i + 1;
  }
  return acc;
}
|}

let module_sources =
  [ ("div.o", div_src);
    ("io.o", io_src);
    ("str.o", str_src);
    ("math.o", math_src);
    ("rand.o", rand_src);
    ("alloc.o", alloc_src);
    ("sort.o", sort_src) ]

let prelude_source = {|
extern func io_putint(x);
extern func io_putchar(c);
extern func io_puts(p);
extern func io_newline();
extern func io_putint_nl(x);
extern func io_put_labeled(p, x);
extern func sys_puts(p);
extern func __sbrk(n);
extern func __divq(a, b);
extern func __remq(a, b);
extern func qlen(p);
extern func qcmp(a, b);
extern func qcpy(dst, src);
extern func qset(p, v, n);
extern func qmove(dst, src, n);
extern func iabs(x);
extern func imin(a, b);
extern func imax(a, b);
extern func ipow(b, e);
extern func isqrt(x);
extern func gcd(a, b);
extern func fx_of_int(x);
extern func fx_to_int(x);
extern func fx_mul(a, b);
extern func fx_div(a, b);
extern func fx_sqrt(x);
extern func fx_exp(x);
extern func fx_sin(x);
extern func fx_cos(x);
extern func srand(s);
extern func randq();
extern func rand_range(n);
extern func alloc(n);
extern func alloc_bytes(n);
extern func alloc_total();
extern func sort_quads(a, n);
extern func bsearch_quads(a, n, key);
extern func apply_fn(a, n, f);
extern func fold_fn(a, n, f, acc);
|}

(* Parsed here, at initialisation, so every compile in the process shares
   it — the link daemon compiles in more than one domain, which rules out
   parsing it lazily on first use. *)
let prelude = Minic.Parser.parse prelude_source

let build_libstd () =
  let compiled =
    List.map
      (fun (name, src) ->
        Minic.Driver.compile_module ~opt:Minic.Driver.O2 ~prelude ~name src)
      module_sources
  in
  Objfile.Archive.make ~name:"libstd.a"
    ((build_crt0 () :: build_sys () :: compiled))

let libstd_cache = lazy (build_libstd ())
let libstd () = Lazy.force libstd_cache
