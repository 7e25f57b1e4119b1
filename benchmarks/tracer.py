"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the promptlab modules from outside:
every module-level binding of a wrapped function inside the package is
replaced (so ``promptlab.cli.train`` is wrapped along with
``promptlab.tuning.train``, and so are entries of module-level dicts such
as ``cli.RUNNERS``), and every binding is restored afterwards.
Nothing under ``src/`` changes.

Two span kinds are kept apart:

* layer spans (``LAYER_SPANS``): a stack of the package's own phases.  A
  layer's self time is its duration minus the time of the layer spans
  nested in it; autodiff primitives it runs count as its own time.
* op spans (``OP_PRIMITIVES``): the public autodiff primitives, with self
  time taken against nested primitives only.

Spans are aggregated in memory per (layer, parent layer, inside a train
step) and written out when the run ends.  Graph nodes are counted by
walking ``.node.inputs`` from the tensors a layer returns, and cyclic GC
pauses come from ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "promptlab"

# layer span -> wrapped functions, as "<module>.<name>" or
# "<module>.<Class>.<method>" under the promptlab package
LAYER_SPANS = {
    "cli.protocol": ("cli.run_base_to_novel",),
    "cli.predict_all": ("cli._predict_all",),
    "cli.write": ("cli._write_log", "cli.save_config", "evalkit.write_csv"),
    "datagen.generate": ("datagen.generate_dataset",),
    "datagen.checkpoint_save": ("datagen.save_checkpoint",),
    "datagen.checkpoint_load": ("datagen.load_checkpoint",),
    "tuning.train": ("tuning.train",),
    "tuning.train_step": ("tuning.train_step",),
    "tuning.text_bank": ("tuning.build_text_bank",),
    "tuning.loss": ("tuning.compute_losses",),
    "tuning.optimizer": ("tuning.SGDMomentum.step",),
    "tuning.global_accuracy": ("tuning.global_branch_accuracy",),
    "tuning.vanilla_cache": ("tuning.vanilla_text_rows",
                             "tuning.vanilla_image_rep"),
    "encoders.image_encode": ("encoders.encode_image_prompted",
                              "encoders.encode_image_from_layer"),
    "encoders.text_encode": ("encoders.encode_text_prompted",),
    "encoders.project": ("encoders.project_global", "encoders.project_text",
                         "encoders.project_augmented"),
    "ensemble.forward": ("tuning.forward_three_branch",),
    "ensemble.predict": ("ensemble.predict",),
    "ensemble.combine": ("ensemble.ensemble_equal",
                         "ensemble.ensemble_confidence",
                         "ensemble.ensemble_threshold"),
    "evalkit.attention_map": ("evalkit.extract_attention_map",),
    "evalkit.gradcam": ("evalkit.gradcam_map",),
    "evalkit.score": ("evalkit.upsample_nearest", "evalkit.binarize_map",
                      "evalkit.segmentation_metrics",
                      "evalkit.foreground_mass"),
    "autodiff.backward": ("autodiff.backward",),
}

# public autodiff primitives the package calls
OP_PRIMITIVES = ("add", "sub", "mul", "div", "exp", "log", "sqrt", "gelu",
                 "reshape", "transpose", "getitem", "concat", "stack_rows",
                 "tsum", "dot", "norm", "matmul", "layer_norm", "softmax",
                 "log_softmax", "cosine_similarity", "masked_attention")

# OpNode.name values the autodiff module records; any other name is
# counted under "other"
NODE_NAMES = ("add", "sub", "mul", "div", "exp", "log", "sqrt", "tanh",
              "power", "gelu", "reshape", "transpose", "getitem", "concat",
              "stack", "sum", "matmul", "layer_norm", "softmax")


def census(tensors) -> Counter:
    """Graph nodes behind ``tensors``, counted by ``OpNode.name``."""
    counts: Counter = Counter()
    seen: set = set()
    stack = [t for t in tensors if t is not None]
    while stack:
        t = stack.pop()
        node = t.node
        if node is None or id(t) in seen:
            continue
        seen.add(id(t))
        counts[node.name] += 1
        stack.extend(node.inputs)
    return counts


class Tracer:
    def __init__(self):
        self.layers: list = []          # active layer spans: [name, child_s]
        self.ops: list = []             # active op spans: [child_s]
        self.step_depth = 0
        # (layer, parent layer, inside a train step) -> [calls, incl_s, self_s]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.op_self = defaultdict(float)
        self.calls: Counter = Counter()  # wrapped function -> calls
        self.step_census: list = []
        self.image_census: list = []
        self.gc_pause = {True: 0.0, False: 0.0}      # keyed by "in a step"
        self.gc_collected = {True: 0, False: 0}
        self._gc_start = 0.0
        self._restore: list = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for layer, targets in LAYER_SPANS.items():
            for target in targets:
                self._wrap(modules, target, self._layer_wrapper(layer, target))
        for name in OP_PRIMITIVES:
            target = f"autodiff.{name}"
            self._wrap(modules, target, self._op_wrapper(name, target))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            if type(owner) is dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, modules, target: str, make) -> None:
        module_name, _, path = target.partition(".")
        owner = sys.modules[f"{PACKAGE}.{module_name}"]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)   # a renamed target fails here
        wrapper = make(original)
        if classes:
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, name, original))
                    setattr(module, name, wrapper)
                elif type(value) is dict:    # dispatch tables such as RUNNERS
                    for key, entry in list(value.items()):
                        if entry is original:
                            self._restore.append((value, key, original))
                            value[key] = wrapper

    # ------------------------------------------------------------ spans

    def _layer_wrapper(self, layer: str, target: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[target] += 1
                stack = self.layers
                if stack and stack[-1][0] == layer:   # nested in its own layer
                    return fn(*args, **kwargs)
                is_step = layer == "tuning.train_step"
                in_step = self.step_depth > 0 or is_step
                self.step_depth += is_step
                frame = [layer, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    self.step_depth -= is_step
                    parent = stack[-1][0] if stack else None
                    if stack:
                        stack[-1][1] += elapsed
                    agg = self.spans[(layer, parent, in_step)]
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - frame[1]
                self._after(layer, out)
                return out
            return wrapper
        return make

    def _op_wrapper(self, name: str, target: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[target] += 1
                frame = [0.0]
                self.ops.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    self.ops.pop()
                    if self.ops:
                        self.ops[-1][0] += elapsed
                    self.op_self[name] += elapsed - frame[0]
            return wrapper
        return make

    def _after(self, layer: str, out) -> None:
        """Graph census of the tensors a layer returned."""
        parent = self.layers[-1][0] if self.layers else None
        if layer == "tuning.loss" and parent == "tuning.train_step":
            _append_constant(self.step_census, census([out["total"]]),
                             "loss graph of a train step")
        elif layer == "ensemble.forward":
            _append_constant(self.image_census,
                             census([out.global_rep, out.augmented_reps]),
                             "graph of an inference forward")

    def _on_gc(self, phase: str, info: dict) -> None:
        # only collections the program triggers, inside one of its layers;
        # the benchmark's own gc.collect() between iterations is not counted
        if not self.layers:
            return
        if phase == "start":
            self._gc_start = perf_counter()
            return
        in_step = self.step_depth > 0
        self.gc_pause[in_step] += perf_counter() - self._gc_start
        self.gc_collected[in_step] += info["collected"]

    # ------------------------------------------------------------ report

    def idle_targets(self, expected_idle) -> list:
        """Wrapped functions that recorded no calls and were not expected
        to be idle on this workload."""
        targets = [t for ts in LAYER_SPANS.values() for t in ts]
        targets += [f"autodiff.{n}" for n in OP_PRIMITIVES]
        return [t for t in targets
                if self.calls[t] == 0 and t not in expected_idle]

    def _sum(self, layer, field, parent=..., in_step=...) -> float:
        return sum(v[field] for (name, par, step), v in self.spans.items()
                   if name == layer and parent in (..., par)
                   and in_step in (..., step))

    def _mean_ms(self, layer: str, field: int = 1) -> float:
        calls = self._sum(layer, 0)
        return 1e3 * self._sum(layer, field) / calls if calls else 0.0

    def metrics(self, steps: int, images: int) -> dict:
        """Per-layer metrics; ``steps`` and ``images`` are the units of
        work of the traced loop (one of them is zero)."""
        unit = steps or images
        per_step = (lambda x: x / steps) if steps else (lambda x: 0.0)
        per_image = (lambda x: x / images) if images else (lambda x: 0.0)
        out = {}

        nodes = self.step_census[0] if self.step_census else Counter()
        out["autodiff.nodes_per_step"] = sum(nodes.values())
        for name in NODE_NAMES:
            out[f"autodiff.op.{name}.nodes_per_step"] = nodes[name]
        out["autodiff.op.other.nodes_per_step"] = sum(
            v for k, v in nodes.items() if k not in NODE_NAMES)
        image_nodes = self.image_census[0] if self.image_census else Counter()
        out["autodiff.nodes_per_image"] = sum(image_nodes.values())
        out["autodiff.backward_ms"] = self._mean_ms("autodiff.backward")
        # train: pauses inside steps; infer/segment: pauses in any layer
        gc_keys = (True,) if steps else (True, False)
        out["autodiff.gc_pause_ms"] = 1e3 * sum(
            self.gc_pause[k] for k in gc_keys) / unit
        out["autodiff.gc_collected"] = sum(
            self.gc_collected[k] for k in gc_keys) / unit
        for name in OP_PRIMITIVES:
            out[f"autodiff.op.{name}.self_ms"] = 1e3 * self.op_self[name] / unit

        out["encoders.image_encode_ms"] = self._mean_ms("encoders.image_encode")
        out["encoders.image_encodes_per_image"] = per_image(
            self._sum("encoders.image_encode", 0))
        out["encoders.image_encodes_per_step"] = per_step(
            self._sum("encoders.image_encode", 0, in_step=True))
        out["encoders.text_encode_ms"] = self._mean_ms("encoders.text_encode")
        out["encoders.text_encodes_per_step"] = per_step(
            self._sum("encoders.text_encode", 0, in_step=True))
        out["encoders.project_ms"] = self._mean_ms("encoders.project")

        out["tuning.text_bank_ms"] = self._mean_ms("tuning.text_bank")
        out["tuning.loss_ms"] = self._mean_ms("tuning.loss", field=2)
        out["tuning.optimizer_ms"] = self._mean_ms("tuning.optimizer")
        out["tuning.epoch_eval_ms"] = self._mean_ms("tuning.global_accuracy")
        out["tuning.vanilla_cache_ms"] = self._mean_ms("tuning.vanilla_cache")

        out["ensemble.forward_ms"] = self._mean_ms("ensemble.forward")
        out["ensemble.forwards_per_image"] = per_image(
            self._sum("ensemble.forward", 0))
        out["ensemble.combine_ms"] = self._mean_ms("ensemble.combine")

        out["evalkit.attention_map_ms"] = self._mean_ms("evalkit.attention_map")
        out["evalkit.gradcam_ms"] = self._mean_ms("evalkit.gradcam")
        scored = self.calls["evalkit.segmentation_metrics"]
        out["evalkit.score_ms"] = (1e3 * self._sum("evalkit.score", 1) / scored
                                   if scored else 0.0)

        out["datagen.generate_ms"] = self._mean_ms("datagen.generate")
        out["datagen.checkpoint_save_ms"] = self._mean_ms(
            "datagen.checkpoint_save")
        out["datagen.checkpoint_load_ms"] = self._mean_ms(
            "datagen.checkpoint_load")

        protocols = self._sum("cli.protocol", 0)
        under = "cli.protocol"
        eval_s = sum(self._sum(layer, 1, parent=under) for layer in
                     ("tuning.text_bank", "tuning.global_accuracy",
                      "cli.predict_all"))
        write_s = sum(self._sum(layer, 1, parent=under) for layer in
                      ("cli.write", "datagen.checkpoint_save"))
        out["cli.eval_ms"] = 1e3 * eval_s / protocols if protocols else 0.0
        out["cli.write_ms"] = 1e3 * write_s / protocols if protocols else 0.0
        return out

    def summary(self) -> dict:
        """Raw aggregates, written next to the run's result."""
        return {
            "layer_spans": [
                {"layer": layer, "parent": parent, "in_step": in_step,
                 "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for (layer, parent, in_step), v in sorted(
                    self.spans.items(), key=lambda kv: -kv[1][1])],
            "op_self_s": dict(sorted(self.op_self.items(),
                                     key=lambda kv: -kv[1])),
            "calls": dict(sorted(self.calls.items())),
            "step_census": dict(self.step_census[0]) if self.step_census
            else {},
            "image_census": dict(self.image_census[0]) if self.image_census
            else {},
            "gc_pause_s": {"in_step": self.gc_pause[True],
                           "elsewhere": self.gc_pause[False]},
        }


def _append_constant(seen: list, counts: Counter, what: str) -> None:
    """Keep the first census; every later one must repeat it exactly."""
    if seen and counts != seen[0]:
        raise RuntimeError(f"{what} changed between calls: "
                           f"{dict(seen[0])} then {dict(counts)}")
    if not seen:
        seen.append(counts)
