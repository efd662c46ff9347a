#!/usr/bin/env bash
# tlp_serve crash drills (DESIGN.md §12, §14, §15). Each drill runs a
# golden fleet uninterrupted, interrupts or damages a second copy of
# it, recovers that copy and requires every curve file to be
# byte-identical to golden.
#
#   tools/fleet_drill.sh BUILD_DIR [DRILL...]
#
# DRILL is one of:
#   recovery  ansor fleet: stop at --ticks 13, SIGKILL a resume, recover
#   guarded   the same on the guarded-ansor ladder
#   io-chaos  SIGKILL a run under --io-fault-rate 0.5, recover under it
#             with 0 checkpoints quarantined
#   fsck      chaos-damage a directory, tear a checkpoint and strand a
#             temp, tlp_fsck audit (exit 3) / repair (exit 3) / clean
#             audit, then rerun fault-free
# and all four run when none is named. Fleet directories go under a
# fresh mktemp directory, whose path is printed and which is kept for
# inspection. Exits non-zero on the first failed step.
set -euo pipefail

build="${1:?usage: $0 BUILD_DIR [recovery|guarded|io-chaos|fsck...]}"
shift
drills=("$@")
[ "${#drills[@]}" -gt 0 ] || drills=(recovery guarded io-chaos fsck)
serve="$build/examples/tlp_serve"
fsck="$build/examples/tlp_fsck"
work="$(mktemp -d)"
echo "fleet drill directories: $work"

# Run tlp_serve in the background, SIGKILL it after a second, reap it.
killed() {
    "$serve" "$@" &
    local pid=$!
    sleep 1
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" || true
}

# Every one of COUNT golden curves must be byte-identical in DRILL.
curves_match() {
    local golden="$1" drill="$2" count="$3"
    test "$(ls "$golden"/*.curve | wc -l)" -eq "$count"
    for f in "$golden"/*.curve; do
        cmp "$f" "$drill/$(basename "$f")"
    done
    echo "all $count curves in $drill byte-identical to golden"
}

# Golden run, --ticks 13 stop, SIGKILLed resume, restart: MODEL fleet.
interrupted_drill() {
    local model="$1" golden="$work/svc_$1_golden" drill="$work/svc_$1_drill"
    local fleet=(--sessions 8 --rounds 6 --model "$model" --seed 5)
    "$serve" --dir "$golden" "${fleet[@]}"
    "$serve" --dir "$drill" "${fleet[@]}" --ticks 13
    killed --dir "$drill" "${fleet[@]}"
    "$serve" --dir "$drill" "${fleet[@]}"
    curves_match "$golden" "$drill" 8
}

io_chaos_drill() {
    local golden="$work/svc_io_golden" drill="$work/svc_io_drill"
    local fleet=(--sessions 6 --rounds 5 --model ansor --seed 9)
    "$serve" --dir "$golden" "${fleet[@]}"
    killed --dir "$drill" "${fleet[@]}" --io-fault-rate 0.5
    "$serve" --dir "$drill" "${fleet[@]}" --io-fault-rate 0.5 \
        | tee "$work/svc_io_recovered.txt"
    curves_match "$golden" "$drill" 6
    # Atomic writes leave every final checkpoint intact, so a read
    # fault must be retried, never quarantined as damage.
    grep -q '^recovery: .*, 0 quarantined$' "$work/svc_io_recovered.txt" ||
        { echo "recovery quarantined a checkpoint under read faults"; exit 1; }
}

fsck_drill() {
    local golden="$work/svc_fsck_golden" drill="$work/svc_fsck_drill"
    local fleet=(--sessions 6 --rounds 5 --model ansor --seed 17)
    "$serve" --dir "$golden" "${fleet[@]}"
    killed --dir "$drill" "${fleet[@]}" --io-fault-rate 0.5
    # Tear a surviving checkpoint mid-file (keep the magic) and strand
    # atomic-write debris, like a dying disk would.
    local ckpt
    ckpt="$(ls "$drill"/*.ckpt 2>/dev/null | head -1 || true)"
    if [ -n "$ckpt" ]; then
        local size
        size="$(stat -c%s "$ckpt")"
        dd if=/dev/zero of="$ckpt" bs=1 count=16 \
            seek="$((size / 2))" conv=notrunc
    fi
    printf 'stranded' > "$drill/s000.ckpt.tmp.4242.7"

    # The audit and the repair both find damage (exit 3); a second
    # audit is clean and the evidence is kept.
    local status=0
    "$fsck" --dir "$drill" || status=$?
    [ "$status" -eq 3 ] || { echo "audit should exit 3, got $status"; exit 1; }
    status=0
    "$fsck" --dir "$drill" --repair || status=$?
    [ "$status" -eq 3 ] || { echo "repair should exit 3, got $status"; exit 1; }
    "$fsck" --dir "$drill"
    ls "$drill"/*.quarantined.* >/dev/null
    echo "repair contained the damage; evidence preserved"

    "$serve" --dir "$drill" "${fleet[@]}"
    curves_match "$golden" "$drill" 6
}

for drill in "${drills[@]}"; do
    echo "=== fleet drill: $drill ==="
    case "$drill" in
      recovery) interrupted_drill ansor ;;
      guarded) interrupted_drill guarded-ansor ;;
      io-chaos) io_chaos_drill ;;
      fsck) fsck_drill ;;
      *) echo "unknown drill '$drill'" >&2; exit 2 ;;
    esac
done
