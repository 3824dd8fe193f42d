(** An independent checker for linked images.

    The optimizer rewrites machine code wholesale, so a second pair of eyes
    is cheap insurance: [Verify.image] re-derives structural facts from the
    {e bytes} of a linked image (standard or optimized) and checks them
    against the loader metadata, with no access to the symbolic form that
    produced them. The tests run every link configuration through it.

    Checks:
    - {!Linker.Image.issues}, the one structural check the standard
      linker's {!Linker.Image.validate} makes too: the descriptor table
      is in entry order with no two extents overlapping, each extent lies
      inside the text (the body of one that does not is not checked),
      the entry point is a procedure's entry and the GAT's extent lies
      inside the data segment;
    - the text decodes ({!Linker.Image.decode_text}, once), and every
      PC-relative branch lands on an
      instruction boundary inside the same procedure or on a procedure
      entry / post-GP-setup point of another one;
    - relaxed far-branch sequences ([br r, 0]; [ldah r, hi(r)];
      [lda r, lo(r)]; [jmp/jsr (r)]) are recomputed from the bytes and
      their synthesized target held to the same rules as a direct branch;
    - every [ldah rX, hi(gp)] with [rX <> gp] (the hi half of a
      two-instruction GP-relative address) points within 32K of the data
      segment — the most a lo part could still correct;
    - every GP-relative quadword load ([ldq rX, d(gp)]) falls inside the
      image's data region;
    - when such a load reads a GAT slot, the slot's {e value} is checked
      against its first uses: an indirect [Jump] through the loaded
      register must target a procedure entry (or a post-GP-setup point),
      and a quadword access based on it must stay inside the data segment.
      This is the check that catches images corrupted by a bad garbage
      collection — a call into a deleted procedure, a GAT slot naming
      GC'd data, or a dangling relocation — while holding on standard
      images, whose slots are always valid;
    - each procedure's GPDISP-style setup (an [ldah gp, hi(pv)] followed
      somewhere by [lda gp, lo(gp)]) computes exactly the procedure's
      recorded GP value — checked for prologues anchored on [pv];
    - procedures marked [gp_setup_at_entry] really begin with the pair. *)

type issue = Linker.Image.issue = { at : int; what : string }

val image : Linker.Image.t -> issue list
(** All problems found; the empty list means the image passed. *)

val verified : Linker.Image.t -> (Linker.Image.decoded, string) result
(** The image's decoded text if it passed, else its first few issues
    formatted into a message. [Om] hands the text on, so a verified
    image is simulated without a second decode. *)

val check : Linker.Image.t -> (unit, string) result
(** {!verified} without the text. *)
