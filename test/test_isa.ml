module I = Isa.Insn
module R = Isa.Reg

let insn = Alcotest.testable (fun ppf i -> I.pp ppf i) I.equal

(* --- generators --- *)

let gen_reg = QCheck.Gen.map R.of_int (QCheck.Gen.int_range 0 31)
let gen_disp16 = QCheck.Gen.int_range (-32768) 32767
let gen_disp21 = QCheck.Gen.int_range (-1048576) 1048575

let gen_cond =
  QCheck.Gen.oneofl
    I.[ Beq; Bne; Blt; Ble; Bge; Bgt; Blbc; Blbs ]

let gen_binop =
  QCheck.Gen.oneofl
    I.[ Addq; Subq; Mulq; Cmpeq; Cmplt; Cmple; Cmpult; Cmpule; And_; Bis;
        Xor; Ornot; Sll; Srl; Sra ]

let gen_operand =
  QCheck.Gen.(
    oneof
      [ map (fun r -> I.Rb r) gen_reg;
        map (fun n -> I.Imm n) (int_range 0 255) ])

let gen_insn =
  QCheck.Gen.(
    oneof
      [ map3 (fun ra rb disp -> I.Lda { ra; rb; disp }) gen_reg gen_reg gen_disp16;
        map3 (fun ra rb disp -> I.Ldah { ra; rb; disp }) gen_reg gen_reg gen_disp16;
        map3 (fun ra rb disp -> I.Ldq { ra; rb; disp }) gen_reg gen_reg gen_disp16;
        map3 (fun ra rb disp -> I.Stq { ra; rb; disp }) gen_reg gen_reg gen_disp16;
        map2 (fun ra disp -> I.Br { ra; disp }) gen_reg gen_disp21;
        map2 (fun ra disp -> I.Bsr { ra; disp }) gen_reg gen_disp21;
        map3 (fun cond ra disp -> I.Bcond { cond; ra; disp }) gen_cond gen_reg
          gen_disp21;
        (let* kind = oneofl I.[ Jmp; Jsr; Ret ] in
         let* ra = gen_reg and* rb = gen_reg and* hint = int_range 0 0x3fff in
         return (I.Jump { kind; ra; rb; hint }));
        (let* op = gen_binop in
         let* ra = gen_reg and* rb = gen_operand and* rc = gen_reg in
         return (I.Op { op; ra; rb; rc }));
        map (fun f -> I.Call_pal f) (int_range 0 0x3ffffff) ])

let arb_insn = QCheck.make ~print:I.to_string gen_insn

(* --- unit tests --- *)

let test_roundtrip_examples () =
  let samples =
    [ I.Lda { ra = R.gp; rb = R.pv; disp = 28576 };
      I.Ldah { ra = R.gp; rb = R.ra; disp = 8192 };
      I.Ldq { ra = R.t0; rb = R.gp; disp = 188 };
      I.Stq { ra = R.v0; rb = R.sp; disp = -8 };
      I.Br { ra = R.zero; disp = -17 };
      I.Bsr { ra = R.ra; disp = 1048575 };
      I.Bcond { cond = I.Bne; ra = R.t3; disp = -1048576 };
      I.Jump { kind = I.Jsr; ra = R.ra; rb = R.pv; hint = 0 };
      I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 1 };
      I.Op { op = I.Addq; ra = R.t0; rb = I.Rb R.t1; rc = R.t2 };
      I.Op { op = I.Sll; ra = R.s0; rb = I.Imm 63; rc = R.s1 };
      I.nop;
      I.Call_pal 0x83 ]
  in
  let decoded = Alcotest.(result insn (testable Isa.Decode.pp_error ( = ))) in
  List.iter
    (fun i ->
      Alcotest.check decoded "roundtrip" (Ok i)
        (Isa.Decode.decode (Isa.Encode.insn i)))
    samples

let test_known_encodings () =
  (* spot-check against hand-computed Alpha-format words *)
  Alcotest.(check int) "lda r1, 1(r31)"
    ((0x08 lsl 26) lor (1 lsl 21) lor (31 lsl 16) lor 1)
    (Isa.Encode.insn (I.Lda { ra = R.t0; rb = R.zero; disp = 1 }));
  Alcotest.(check int) "nop is bis r31,r31,r31"
    ((0x11 lsl 26) lor (31 lsl 21) lor (31 lsl 16) lor (0x20 lsl 5) lor 31)
    (Isa.Encode.insn I.nop)

let test_nop_detection () =
  Alcotest.(check bool) "canonical nop" true (I.is_nop I.nop);
  Alcotest.(check bool) "lda r31 is a nop" true
    (I.is_nop (I.Lda { ra = R.zero; rb = R.t0; disp = 4 }));
  Alcotest.(check bool) "addq to r0 is not a nop" false
    (I.is_nop (I.Op { op = I.Addq; ra = R.t0; rb = I.Imm 1; rc = R.v0 }))

let test_defs_uses () =
  let l = I.Ldq { ra = R.t0; rb = R.gp; disp = 8 } in
  Alcotest.(check (list string)) "ldq defs" [ "t0" ]
    (List.map R.name (I.defs l));
  Alcotest.(check (list string)) "ldq uses" [ "gp" ]
    (List.map R.name (I.uses l));
  let s = I.Stq { ra = R.t1; rb = R.sp; disp = 0 } in
  Alcotest.(check (list string)) "stq defs" [] (List.map R.name (I.defs s));
  let z = I.Op { op = I.Addq; ra = R.zero; rb = I.Rb R.zero; rc = R.zero } in
  Alcotest.(check (list string)) "zero never reported" []
    (List.map R.name (I.defs z @ I.uses z))

let test_split32 () =
  List.iter
    (fun d ->
      let hi, lo = I.split32 d in
      Alcotest.(check int) (Printf.sprintf "split32 %d recombines" d) d
        ((hi * 65536) + lo);
      Alcotest.(check bool) "lo fits" true (I.fits_disp16 lo);
      Alcotest.(check bool) "hi fits" true (I.fits_disp16 hi))
    [ 0; 1; -1; 32767; 32768; -32768; -32769; 0x12345678; -0x12345678;
      0x7fff7fff; -0x7fff8000 ]

let test_branch_disp () =
  let b = I.Bsr { ra = R.ra; disp = 42 } in
  Alcotest.check insn "with_branch_disp"
    (I.Bsr { ra = R.ra; disp = -1 })
    (I.with_branch_disp b (-1));
  Alcotest.check_raises "with_branch_disp on non-branch"
    (Invalid_argument "Insn.with_branch_disp: not a PC-relative branch")
    (fun () -> ignore (I.with_branch_disp I.nop 0))

(* --- properties --- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:2000 arb_insn
    (fun i ->
      Result.equal ~ok:I.equal ~error:( = )
        (Isa.Decode.decode (Isa.Encode.insn i))
        (Ok i))

let prop_encode_32bit =
  QCheck.Test.make ~name:"encodings fit 32 bits" ~count:2000 arb_insn
    (fun i ->
      let w = Isa.Encode.insn i in
      w >= 0 && w < 1 lsl 32)

let prop_decode_total =
  QCheck.Test.make ~name:"decode never raises on arbitrary words" ~count:2000
    QCheck.(int_bound ((1 lsl 32) - 1))
    (fun w ->
      match Isa.Decode.decode w with Ok _ | Error _ -> true)

let prop_split32 =
  QCheck.Test.make ~name:"split32 recombines" ~count:1000
    QCheck.(int_range (-2147450880) 2147450879)
    (fun d ->
      QCheck.assume (I.fits_disp32 d);
      let hi, lo = I.split32 d in
      (hi * 65536) + lo = d && I.fits_disp16 lo && I.fits_disp16 hi)

(* --- scheduling --- *)

let gen_sched_insn =
  (* straight-line instructions only *)
  QCheck.Gen.(
    oneof
      [ map3 (fun ra rb disp -> I.Lda { ra; rb; disp }) gen_reg gen_reg gen_disp16;
        map3 (fun ra rb disp -> I.Ldq { ra; rb; disp }) gen_reg gen_reg gen_disp16;
        map3 (fun ra rb disp -> I.Stq { ra; rb; disp }) gen_reg gen_reg gen_disp16;
        (let* op = gen_binop in
         let* ra = gen_reg and* rb = gen_operand and* rc = gen_reg in
         return (I.Op { op; ra; rb; rc })) ])

let prop_schedule_valid =
  QCheck.Test.make ~name:"list scheduling yields a valid order" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_range 0 20) gen_sched_insn))
    (fun insns ->
      let nodes =
        Array.of_list (List.map (fun i -> Isa.Schedule.node_of_insn i) insns)
      in
      let perm = Isa.Schedule.order nodes in
      Isa.Schedule.is_valid_order nodes perm)

(* The list scheduler as it was before it selected from a ready set:
   quadratic, rescanning every node at every issue slot. It stays here as
   the oracle the ready-set scheduler must agree with, permutation for
   permutation. *)
let reference_order (nodes : Isa.Schedule.node array) =
  let open Isa.Schedule in
  let intersects xs ys = xs land ys <> 0 in
  let dep_weight ~(a : node) ~(b : node) =
    if intersects a.defs b.uses then a.latency
    else if
      a.barrier || b.barrier
      || intersects a.uses b.defs
      || intersects a.defs b.defs
      || (a.writes_mem && (b.reads_mem || b.writes_mem))
      || (b.writes_mem && a.reads_mem)
    then 1
    else -1
  in
  let n = Array.length nodes in
  let succs = Array.make n [] in
  let remaining = Array.make n 0 in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      let w = dep_weight ~a:nodes.(i) ~b:nodes.(j) in
      if w >= 0 then begin
        succs.(i) <- (j, w) :: succs.(i);
        remaining.(j) <- remaining.(j) + 1
      end
    done
  done;
  let height = Array.make n 0 in
  for i = n - 1 downto 0 do
    height.(i) <-
      List.fold_left
        (fun acc (j, w) -> max acc (w + height.(j)))
        nodes.(i).latency succs.(i)
  done;
  let ready_at = Array.make n 0 in
  let scheduled = Array.make n false in
  let result = Array.make n 0 in
  let filled = ref 0 in
  let cycle = ref 0 in
  let issued_count = ref 0 in
  let issued_pipe = ref Isa.Latency.E in
  while !filled < n do
    let best = ref (-1) in
    for i = n - 1 downto 0 do
      if
        (not scheduled.(i))
        && remaining.(i) = 0
        && ready_at.(i) <= !cycle
        && (!issued_count = 0
           || (nodes.(i).pipe <> !issued_pipe && not nodes.(i).barrier))
        && (!best = -1
           || height.(i) > height.(!best)
           || (height.(i) = height.(!best) && i < !best))
      then best := i
    done;
    match !best with
    | -1 ->
        incr cycle;
        issued_count := 0
    | i ->
        scheduled.(i) <- true;
        result.(!filled) <- i;
        incr filled;
        List.iter
          (fun (j, w) ->
            remaining.(j) <- remaining.(j) - 1;
            ready_at.(j) <- max ready_at.(j) (!cycle + w))
          succs.(i);
        incr issued_count;
        if !issued_count >= 2 || nodes.(i).barrier then begin
          incr cycle;
          issued_count := 0
        end
        else issued_pipe := nodes.(i).pipe
  done;
  result

(* Runs as the two schedulers see them: plain instructions, some pinned
   as barriers (a labelled run leader, a branch) and some with OM's
   two-cycle wide-form latency, up to 64 nodes (the suite's longest run). *)
let gen_sched_node =
  QCheck.Gen.(
    let* insn = gen_sched_insn in
    let* barrier = frequencyl [ (7, false); (1, true) ] in
    let* wide = frequencyl [ (7, false); (1, true) ] in
    let node = Isa.Schedule.node_of_insn ~barrier insn in
    return (if wide then { node with Isa.Schedule.latency = 2 } else node))

let prop_schedule_matches_reference =
  QCheck.Test.make ~name:"list scheduling matches the reference scheduler"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         oneof
           [ map
               (fun insns ->
                 Array.of_list (List.map Isa.Schedule.node_of_insn insns))
               (list_size (int_range 0 20) gen_sched_insn);
             map Array.of_list (list_size (int_range 0 64) gen_sched_node) ]))
    (fun nodes -> Isa.Schedule.order nodes = reference_order nodes)

let test_schedule_dependent_chain () =
  (* a fully dependent chain cannot be reordered *)
  let chain =
    [ I.Lda { ra = R.t0; rb = R.zero; disp = 1 };
      I.Op { op = I.Addq; ra = R.t0; rb = I.Imm 1; rc = R.t0 };
      I.Op { op = I.Addq; ra = R.t0; rb = I.Imm 2; rc = R.t0 };
      I.Op { op = I.Addq; ra = R.t0; rb = I.Imm 3; rc = R.t0 } ]
  in
  let nodes = Array.of_list (List.map Isa.Schedule.node_of_insn chain) in
  let perm = Isa.Schedule.order nodes in
  Alcotest.(check (array int)) "identity order" [| 0; 1; 2; 3 |] perm

let test_schedule_fills_load_latency () =
  (* independent work should move between a load and its use *)
  let block =
    [ I.Ldq { ra = R.t0; rb = R.sp; disp = 0 };
      I.Op { op = I.Addq; ra = R.t0; rb = I.Imm 1; rc = R.t1 };
      I.Op { op = I.Addq; ra = R.t2; rb = I.Imm 1; rc = R.t3 };
      I.Op { op = I.Addq; ra = R.t4; rb = I.Imm 1; rc = R.t5 } ]
  in
  let nodes = Array.of_list (List.map Isa.Schedule.node_of_insn block) in
  let perm = Isa.Schedule.order nodes in
  let pos = Array.make 4 0 in
  Array.iteri (fun slot i -> pos.(i) <- slot) perm;
  Alcotest.(check bool) "use of load is not immediately after it" true
    (pos.(1) > pos.(0) + 1)

let test_decode_partial_word () =
  let b = Bytes.make 10 '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int (Isa.Encode.insn I.nop));
  Bytes.set_int32_le b 4 (Int32.of_int (Isa.Encode.insn I.nop));
  let validate_agrees () =
    Alcotest.(check bool) "validate's error is of_bytes_loc's" true
      (Isa.Decode.validate b = Result.map ignore (Isa.Decode.of_bytes_loc b))
  in
  validate_agrees ();
  (match Isa.Decode.of_bytes_loc b with
  | Error (8, (Isa.Decode.Trailing_bytes 2 as e)) ->
      let msg = Format.asprintf "%a" Isa.Decode.pp_error e in
      Alcotest.(check bool) ("pp_error names the case: " ^ msg) true
        (Astring.String.is_infix ~affix:"2 trailing bytes" msg)
  | _ -> Alcotest.fail "of_bytes_loc: expected Trailing_bytes 2 at offset 8");
  (* an undecodable whole word comes before the partial one *)
  Bytes.set_int32_le b 4 0x10000000l;
  validate_agrees ();
  match Isa.Decode.of_bytes_loc b with
  | Error (4, Isa.Decode.Bad_opcode _) -> ()
  | _ -> Alcotest.fail "expected the bad word at offset 4"

(* [Decode.validate] agrees with [decode] word by word: on every
   combination of the fields that decide decodability (opcode, an
   operate's function and literal bit, a jump's kind) and on random
   words, a one-word stream is [Ok] exactly when the word decodes, and
   otherwise carries [decode]'s error at offset 0. *)
let test_validate_agrees_with_decode () =
  let agree w =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int w);
    let expected =
      match Isa.Decode.decode w with Ok _ -> Ok () | Error e -> Error (0, e)
    in
    if Isa.Decode.validate b <> expected then
      Alcotest.failf "word %#x: validate disagrees with decode" w
  in
  for opcode = 0 to 0x3f do
    for funct = 0 to 0x7f do
      for kind = 0 to 3 do
        for lit = 0 to 1 do
          agree
            ((opcode lsl 26) lor (kind lsl 14) lor (lit lsl 12)
            lor (funct lsl 5))
        done
      done
    done
  done;
  let rng = Random.State.make [| 0xdec0de |] in
  for _ = 1 to 100_000 do
    agree (Random.State.bits rng lor (Random.State.int rng 4 lsl 30))
  done

let suite =
  ( "isa",
    [ Alcotest.test_case "roundtrip examples" `Quick test_roundtrip_examples;
      Alcotest.test_case "known encodings" `Quick test_known_encodings;
      Alcotest.test_case "nop detection" `Quick test_nop_detection;
      Alcotest.test_case "defs and uses" `Quick test_defs_uses;
      Alcotest.test_case "split32" `Quick test_split32;
      Alcotest.test_case "branch displacement" `Quick test_branch_disp;
      Alcotest.test_case "partial trailing word" `Quick
        test_decode_partial_word;
      Alcotest.test_case "dependent chain order" `Quick
        test_schedule_dependent_chain;
      Alcotest.test_case "load latency filling" `Quick
        test_schedule_fills_load_latency;
      Alcotest.test_case "validate agrees with decode" `Quick
        test_validate_agrees_with_decode;
      Testutil.qtest prop_roundtrip;
      Testutil.qtest prop_encode_32bit;
      Testutil.qtest prop_decode_total;
      Testutil.qtest prop_split32;
      Testutil.qtest prop_schedule_valid;
      Testutil.qtest prop_schedule_matches_reference ] )
