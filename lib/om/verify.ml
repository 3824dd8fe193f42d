module I = Isa.Insn
module R = Isa.Reg

type issue = Linker.Image.issue = { at : int; what : string }

let pp_issue ppf i = Format.fprintf ppf "%#x: %s" i.at i.what

(* The structural issues, then, on text that decodes, the byte-level
   ones; the decoded text goes back with them. *)
let run (img : Linker.Image.t) =
  let issues = ref (List.rev (Linker.Image.issues img)) in
  let problem at fmt =
    Format.kasprintf (fun what -> issues := { at; what } :: !issues) fmt
  in
  match Linker.Image.decode_text img with
  | Error (at, e) ->
      problem at "text does not decode: %a" Isa.Decode.pp_error e;
      (None, List.rev !issues)
  | Ok ({ insns; _ } as decoded) ->
      let text_end = img.text_base + (4 * Array.length insns) in
      let data_end = img.data_base + Bytes.length img.Linker.Image.data in
      let proc_of addr = Linker.Image.proc_containing img addr in
      (* legitimate cross-procedure entry points: the entry itself, or the
         instruction just past an entry GP-setup pair — in either case
         possibly preceded by alignment no-ops *)
      let only_nops_between a b =
        let rec go addr =
          addr >= b
          || (I.is_nop insns.((addr - img.text_base) / 4) && go (addr + 4))
        in
        a <= b && a >= img.text_base && b <= text_end && go a
      in
      let valid_cross_target (p : Linker.Image.proc_info) target =
        only_nops_between p.entry target
        || (p.gp_setup_at_entry && only_nops_between (p.entry + 8) target)
      in
      Array.iter
        (fun (p : Linker.Image.proc_info) ->
          (* the body checks index the text through the descriptor;
             [Image.issues] reported one outside it *)
          if p.entry < img.text_base || p.size < 0 || p.entry + p.size > text_end
          then ()
          else
            let first = (p.entry - img.text_base) / 4 in
            let count = p.size / 4 in
            let check_code_target addr what target =
              if target < img.text_base || target >= text_end then
                problem addr "%s target %#x outside text" what target
              else if target land 3 <> 0 then
                problem addr "%s target %#x is not instruction-aligned" what
                  target
              else
                match proc_of target with
                | Some tp when String.equal tp.name p.name -> ()
                | Some tp ->
                    if not (valid_cross_target tp target) then
                      problem addr
                        "%s into the middle of %s (target %#x, entry %#x)" what
                        tp.name target tp.entry
                | None -> problem addr "%s target %#x in no procedure" what target
            in
            (* the gp_setup_at_entry flag must match the bytes *)
            (if p.gp_setup_at_entry then
               let pair_at_entry =
                 count >= 2
                 &&
                 match (insns.(first), insns.(first + 1)) with
                 | I.Ldah { ra = r1; _ }, I.Lda { ra = r2; rb; _ } ->
                     R.equal r1 R.gp && R.equal r2 R.gp && R.equal rb R.gp
                 | _ -> false
               in
               if not pair_at_entry then
                 problem p.entry "%s: gp_setup_at_entry but no pair at entry"
                   p.name);
            for k = first to first + count - 1 do
              let addr = img.text_base + (4 * k) in
              match insns.(k) with
              | I.Br { ra = r; disp = 0 }
                when (not (R.equal r R.zero)) && k + 3 < first + count -> (
                  match (insns.(k + 1), insns.(k + 2), insns.(k + 3)) with
                  | ( I.Ldah { ra = a1; rb = b1; disp = hi },
                      I.Lda { ra = a2; rb = b2; disp = lo },
                      I.Jump { rb = j; _ } )
                    when R.equal a1 r && R.equal b1 r && R.equal a2 r
                         && R.equal b2 r && R.equal j r ->
                      (* a relaxed far branch: [br r, 0] captures the ldah's
                         address, the ldah/lda pair adds a 32-bit
                         displacement, and the jump transfers. Recompute the
                         target from the bytes and hold it to the same rules
                         as a direct branch. *)
                      check_code_target addr "far branch"
                        (addr + 4 + (hi * 65536) + lo)
                  | _ -> check_code_target addr "branch" (addr + 4))
              | I.Br { disp; _ } | I.Bsr { disp; _ } | I.Bcond { disp; _ } ->
                  check_code_target addr "branch" (addr + 4 + (4 * disp))
              | I.Ldq { ra = rdest; rb; disp } when R.equal rb R.gp ->
                  let a = p.gp_value + disp in
                  if a < img.data_base || a + 8 > data_end then
                    problem addr "gp-relative load from %#x outside data" a
                  else if
                    a >= img.gat_base
                    && a + 8 <= img.gat_base + img.gat_bytes
                    && not (R.equal rdest R.gp)
                  then begin
                    (* A GAT slot load: follow the loaded value to its first
                       uses. An indirect jump through it must land on a
                       procedure entry; a memory access based on it must stay
                       inside the data segment. This is what catches a
                       dangling slot left behind by a bad GC: the procedure
                       or datum it named is gone but the code still loads and
                       uses it. The scan is conservative — it stops at the
                       first redefinition or control transfer. *)
                    let value =
                      Int64.to_int
                        (Bytes.get_int64_le img.data (a - img.data_base))
                    in
                    let rec follow j =
                      if j < first + count then
                        let jaddr = img.text_base + (4 * j) in
                        match insns.(j) with
                        | I.Jump { rb; _ } when R.equal rb rdest -> (
                            match proc_of value with
                            | Some tp when valid_cross_target tp value -> ()
                            | _ ->
                                problem jaddr
                                  "indirect jump via GAT slot %#x: %#x is not \
                                   a procedure entry"
                                  a value)
                        | (I.Ldq { rb; disp; _ } | I.Stq { rb; disp; _ }) as i
                          when R.equal rb rdest ->
                            let ea = value + disp in
                            if ea < img.data_base || ea + 8 > data_end then
                              problem jaddr
                                "memory access via GAT slot %#x: address %#x \
                                 outside data"
                                a ea;
                            if I.defs_mask i land R.bit rdest <> 0 then ()
                            else follow (j + 1)
                        | i ->
                            if
                              I.is_branch i
                              || I.defs_mask i land R.bit rdest <> 0
                            then ()
                            else follow (j + 1)
                    in
                    follow (k + 1)
                  end
              | I.Stq { rb; disp; _ } when R.equal rb R.gp ->
                  let a = p.gp_value + disp in
                  if a < img.data_base || a + 8 > data_end then
                    problem addr "gp-relative store to %#x outside data" a
              | I.Lda { ra; rb; disp } when R.equal rb R.gp && not (R.equal ra R.gp)
                ->
                  let a = p.gp_value + disp in
                  if a < img.data_base || a >= data_end then
                    problem addr "gp-relative address %#x outside data" a
              | I.Ldah { ra; rb; disp = hi }
                when R.equal rb R.gp && not (R.equal ra R.gp) ->
                  (* the hi half of a two-instruction GP-relative address
                     (lea-wide, wide GAT load, or the LDAH trick): whatever
                     lo lands later can move it by at most 32K, so the hi
                     part alone must already point within 32K of the data
                     segment *)
                  let a = p.gp_value + (hi * 65536) in
                  if a < img.data_base - 0x8000 || a > data_end + 0x8000 then
                    problem addr "ldah off gp reaches %#x, far outside data" a
              | I.Ldah { ra; rb; disp = hi } when R.equal ra R.gp && R.equal rb R.pv
                -> (
                  (* a prologue GP setup: its pair must recompute gp_value *)
                  let rec find_lo j =
                    if j >= first + count then None
                    else
                      match insns.(j) with
                      | I.Lda { ra; rb; disp }
                        when R.equal ra R.gp && R.equal rb R.gp -> Some disp
                      | _ -> find_lo (j + 1)
                  in
                  match find_lo (k + 1) with
                  | Some lo ->
                      let computed = p.entry + (hi * 65536) + lo in
                      if computed <> p.gp_value then
                        problem addr
                          "%s: GP setup computes %#x but descriptor says %#x"
                          p.name computed p.gp_value
                  | None -> problem addr "%s: ldah gp,(pv) without its lda" p.name)
              | _ -> ()
            done)
        img.procs;
      (Some decoded, List.rev !issues)

let image img = snd (run img)

let verified img =
  match run img with
  | Some decoded, [] -> Ok decoded
  | _, issues ->
      let head = List.filteri (fun i _ -> i < 5) issues in
      Error
        (Format.asprintf "%d issue(s): %a"
           (List.length issues)
           (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
              pp_issue)
           head)

let check img = Result.map ignore (verified img)
