#!/usr/bin/env bash
# Run every route of the installed `vidseg` console script on synthetic clips
# written under the directory given as the one argument, which must not hold
# earlier runs: the single-shot pipeline, the staged route (pool, adapt,
# segment, eval), which must write the single-shot run's files byte for byte,
# the ablation route, a run without ground truth, a one-frame clip, the default
# moving clip, a clip with noisy dense flow, a corner clip whose jitter
# pushes a proposal out of frame, and adapt and segment on a confidence CSV of
# no rows, which each must reject with exit 2 before creating their --out path.
# A failing command, a differing file, a Python warning under PYTHONWARNINGS=error
# or a temporary file left behind by a write fails the script.
#
#   bash .github/console-routes.sh "$RUNNER_TEMP"
set -euo pipefail
tmp=$1

# a clip that segments (IoU 1), so the staged-route diff below compares real masks
vidseg synth --out "$tmp/demo" --seed 5 --frames 4 --confidence-base 0.6
vidseg pipeline --config "$tmp/demo/config.json"
grep -qx 'mean,,1,1,0' "$tmp/demo/out/report.csv"
# the staged route; $tmp/staged does not exist yet, so each writer creates its directory
cfg="$tmp/demo/config.json"
out="$tmp/staged"
PYTHONWARNINGS=error vidseg pool --config "$cfg" --out "$out/pooled.csv"
PYTHONWARNINGS=error vidseg adapt --config "$cfg" --confidence "$out/pooled.csv" --out "$out/adapted.csv"
PYTHONWARNINGS=error vidseg segment --config "$cfg" --confidence "$out/adapted.csv" --out "$out/seg"
PYTHONWARNINGS=error vidseg eval --pred "$out/seg/masks/object" --gt "$tmp/demo/gt" --out "$out/new/report.csv"
# the staged route writes the single-shot run's files byte for byte
single="$tmp/demo/out"
cmp "$single/pooled.csv" "$out/pooled.csv"
cmp "$single/adapted.csv" "$out/adapted.csv"
cmp "$single/gmm_object.json" "$out/seg/gmm_object.json"
cmp "$single/report.csv" "$out/new/report.csv"
diff -r "$single/masks" "$out/seg/masks"
diff -r "$single/overlays" "$out/seg/overlays"
# the ablation route: no diffusion, graph dump
vidseg pipeline --config "$cfg" --skip-adaptation --dump-graph --out "$out/ablation"
# a run without ground truth scores nothing: its report is the header line alone. Its
# config sits next to the demo's, so the relative paths in it still resolve.
python -c 'import json, sys; cfg = json.load(open(sys.argv[1])); del cfg["gt_dir"]; json.dump(cfg, open(sys.argv[2], "w"))' "$cfg" "$tmp/demo/config_no_gt.json"
PYTHONWARNINGS=error vidseg pipeline --config "$tmp/demo/config_no_gt.json" --out "$tmp/no_gt"
printf 'video,class,iou_micro,iou_macro,mean_pixel_error\n' | cmp - "$tmp/no_gt/report.csv"
# a one-frame clip: no flow and no temporal edges; any warning fails the script
vidseg synth --out "$tmp/one" --frames 1 --seed 3 --confidence-base 0.6 --width 48 --height 48 --shape-size 16 16
PYTHONWARNINGS=error vidseg pipeline --config "$tmp/one/config.json" --dump-graph
# the default moving clip: flow-binned and colliding pixels in every frame pair; any warning fails the script
vidseg synth --out "$tmp/moving" --seed 7
PYTHONWARNINGS=error vidseg pipeline --config "$tmp/moving/config.json" --dump-graph
# a dense-flow clip: N(0, 2 px) noise on every flow pixel sends fractional flow
# through the flow bins, colliding warps and the motion-entropy path; any warning fails the script
vidseg synth --out "$tmp/dense" --seed 7 --flow-noise 2
PYTHONWARNINGS=error vidseg pipeline --config "$tmp/dense/config.json" --dump-graph
# a 2x2 shape in the corner: jitter pushes frame 0's proposal box out of frame, so
# synth leaves it out of the manifest; any warning fails the script
vidseg synth --out "$tmp/corner" --shape-size 2 2 --start 0 0 --velocity 0 0 --frames 3 --confidence-base 0.6
PYTHONWARNINGS=error vidseg pipeline --config "$tmp/corner/config.json"
# a confidence CSV of no rows: adapt and segment each exit 2 and create no --out path
printf 'frame,superpixel_id,class,value\n' > "$tmp/no_rows.csv"
for command in adapt segment; do
  status=0
  vidseg "$command" --config "$cfg" --confidence "$tmp/no_rows.csv" --out "$tmp/no_rows_$command" || status=$?
  if [ "$status" -ne 2 ] || [ -e "$tmp/no_rows_$command" ]; then
    echo "vidseg $command on a confidence CSV of no rows: exit $status" >&2
    exit 1
  fi
done
# every file is written to a temporary and renamed into place; none may remain
leftover=$(find "$tmp" -name '*.tmp')
if [ -n "$leftover" ]; then
  echo "temporary files left behind:" >&2
  echo "$leftover" >&2
  exit 1
fi
