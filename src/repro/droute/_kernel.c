/*
 * Detailed routing of one net over the flat per-node buffers of
 * repro.droute.indexed.DrouteIndex: its guide stamp, the ladder that
 * makes each connection (L-shaped tries, pocket look, hard search, soft
 * search) and its min-area patch.
 *
 * Built by repro.droute.indexed.load_kernel with the system compiler
 * (-O2 -fPIC -shared -ffp-contract=off, no -ffast-math) and called through
 * ctypes.  Every float expression below is the one the dict oracle
 * (tests/oracles/droute.py) evaluates, in the same order and without FMA
 * contraction, so costs and queue keys are bit-equal to it; the queue pops
 * in (f, insertion order), the oracle's (f, tie) order.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_STEPS 6
/* Every search and every pocket look takes a fresh block of this many
 * gate codes, so no mark of an earlier block compares >= a later block's
 * base: wide enough for the search's five codes (0 free, 1 held by
 * another net, WALL, and INSIDE + (0 | 1) for a node the preceding look
 * marked) and the look's two. */
#define GATE_BLOCK 8
#define WALL 2
#define INSIDE 3
#define BLOCKED_ID 1
#define SLACK 1e-9
/* the rungs of drk_connect, as bits of its rungs argument */
#define RUNG_FAST 1
#define RUNG_HARD 2
#define RUNG_SOFT 4
/* returned for a terminal, window or guide off the lattice */
#define OFF_LATTICE -2

/* Per-node buffers, lattice geometry, the cost constants of the next call,
 * the stamp counters and what the last call found; mirrored by a ctypes
 * Structure. */
typedef struct {
    const int32_t *owner;
    int32_t *occupancy;
    int32_t *came_from;
    double *g_score;
    int64_t *target_epoch;
    int64_t *guide_epoch;
    int64_t *gate;
    const int32_t *horizontal; /* per layer: preferred direction is x */
    const double *history;     /* per node: negotiated cost, never < 0 */
    const int32_t *min_area;   /* per layer: nodes an island needs, 0: no rule */
    int32_t *path;             /* out: the last path's node ids, source first */
    int32_t nx, ny, num_layers, min_wire_layer;
    int64_t pitch, die_lx, die_ly, offset, margin;
    double via_cost, jog_factor, conflict_penalty, heuristic_weight;
    double soft_budget_factor;
    int64_t max_expansions, pocket_budget;
    int64_t epoch, gate_stamp, guide_stamp;
    double cost;        /* out: the path's cost */
    int64_t expansions; /* out: nodes the last search expanded */
    /* out, of drk_connect: each search's expansions (-1: not run) and
     * whether the look answered the hard search / tolled the soft one */
    int64_t hard_expansions, soft_expansions;
    int32_t hard_skipped, soft_tolled;
    int32_t path_len;  /* out: ids written to path */
    int32_t bounds[4]; /* out, of drk_guide: the net's search window */
} Index;

typedef struct {
    int32_t dnid;
    int32_t dx, dy, dl;
    double cost;  /* penalty-free step */
    double penal; /* step onto a node held by another net */
} Step;

typedef struct {
    double f;
    int64_t seq;
    double g;
    int32_t nid;
} Entry;

/* Each layer's steps in the oracle's candidate order: along-track +/-,
 * jog +/-, via up, via down.  Layers below min_wire_layer have vias only,
 * and a via that would leave the stack is absent. */
static void build_steps(const Index *x, Step *steps, int32_t *counts)
{
    double wire_cost = (double)x->pitch;
    double jog_cost = x->jog_factor * (double)x->pitch;
    int32_t stride = x->nx * x->ny;
    for (int32_t layer = 0; layer < x->num_layers; layer++) {
        Step *s = steps + (size_t)layer * MAX_STEPS;
        int32_t n = 0;
        if (layer >= x->min_wire_layer) {
            Step xs[2] = {{1, 1, 0, 0, 0, 0}, {-1, -1, 0, 0, 0, 0}};
            Step ys[2] = {{x->nx, 0, 1, 0, 0, 0}, {-x->nx, 0, -1, 0, 0, 0}};
            const Step *along = x->horizontal[layer] ? xs : ys;
            const Step *across = x->horizontal[layer] ? ys : xs;
            for (int k = 0; k < 2; k++) {
                s[n] = along[k];
                s[n].cost = wire_cost;
                n++;
            }
            for (int k = 0; k < 2; k++) {
                s[n] = across[k];
                s[n].cost = jog_cost;
                n++;
            }
        }
        if (layer + 1 < x->num_layers)
            s[n++] = (Step){stride, 0, 0, 1, x->via_cost, 0};
        if (layer > 0)
            s[n++] = (Step){-stride, 0, 0, -1, x->via_cost, 0};
        for (int k = 0; k < n; k++)
            s[k].penal = s[k].cost + x->conflict_penalty;
        counts[layer] = n;
    }
}

/* ------------------------------------------------------------ the queue */

typedef struct {
    Entry *e;
    size_t n, cap;
} Heap;

static int before(const Entry *a, const Entry *b)
{
    return a->f < b->f || (a->f == b->f && a->seq < b->seq);
}

static int heap_push(Heap *h, Entry item)
{
    if (h->n == h->cap) {
        size_t cap = h->cap ? 2 * h->cap : 1024;
        Entry *e = realloc(h->e, cap * sizeof *e);
        if (!e)
            return -1;
        h->e = e;
        h->cap = cap;
    }
    size_t i = h->n++;
    while (i > 0) {
        size_t parent = (i - 1) / 2;
        if (!before(&item, &h->e[parent]))
            break;
        h->e[i] = h->e[parent];
        i = parent;
    }
    h->e[i] = item;
    return 0;
}

static Entry heap_pop(Heap *h)
{
    Entry top = h->e[0];
    Entry last = h->e[--h->n];
    size_t i = 0;
    for (;;) {
        size_t child = 2 * i + 1;
        if (child >= h->n)
            break;
        if (child + 1 < h->n && before(&h->e[child + 1], &h->e[child]))
            child++;
        if (!before(&h->e[child], &last))
            break;
        h->e[i] = h->e[child];
        i = child;
    }
    if (h->n)
        h->e[i] = last;
    return top;
}

typedef struct {
    int32_t *v;
    size_t n, cap;
} Ids;

static int ids_push(Ids *ids, int32_t nid)
{
    if (ids->n == ids->cap) {
        size_t cap = ids->cap ? 2 * ids->cap : 1024;
        int32_t *v = realloc(ids->v, cap * sizeof *v);
        if (!v)
            return -1;
        ids->v = v;
        ids->cap = cap;
    }
    ids->v[ids->n++] = nid;
    return 0;
}

static int ids_has(const Ids *ids, int32_t nid)
{
    for (size_t i = 0; i < ids->n; i++)
        if (ids->v[i] == nid)
            return 1;
    return 0;
}

/* The kernel indexes its buffers unchecked, and a step it takes stays on
 * the lattice only while the window does: both are checked first. */
static int on_lattice(const Index *x, const int32_t *a, int32_t n_a,
                      const int32_t *b, int32_t n_b, const int32_t *box)
{
    int64_t num_nodes = (int64_t)x->nx * x->ny * x->num_layers;
    if (box[0] < 0 || box[2] >= x->nx || box[1] < 0 || box[3] >= x->ny)
        return 0;
    for (int32_t i = 0; i < n_a; i++)
        if (a[i] < 0 || a[i] >= num_nodes)
            return 0;
    for (int32_t i = 0; i < n_b; i++)
        if (b[i] < 0 || b[i] >= num_nodes)
            return 0;
    return 1;
}

/* ------------------------------------------------------------ the search */

typedef struct {
    int64_t x0, x1, y0, y1;
    int32_t l0, l1;
} Box;

/* The oracle's pitch * (dx + dy) + via_cost * dl: the planar part is an
 * exact integer, so it is summed as one and converted once. */
static double estimate(const Box *t, int64_t pitch, double via_cost,
                       int64_t ix, int64_t iy, int32_t layer)
{
    int64_t dx = ix < t->x0 ? t->x0 - ix : (ix > t->x1 ? ix - t->x1 : 0);
    int64_t dy = iy < t->y0 ? t->y0 - iy : (iy > t->y1 ? iy - t->y1 : 0);
    int32_t dl = layer < t->l0 ? t->l0 - layer : (layer > t->l1 ? layer - t->l1 : 0);
    return (double)(pitch * dx + pitch * dy) + via_cost * (double)dl;
}

/*
 * Cheapest path from sources to targets; see astar_connect_indexed in
 * indexed.py for the contract.  Takes the next epoch and gate block; a
 * nonzero toll reads the block below its own as the closed look's.
 * Returns the path's length, with its node ids (source first) in x->path
 * -- a node another net holds as -(id + 1) -- and its cost in x->cost; 0 when the queue or the budget ran out; -1
 * when memory did.  g_score and came_from are restored on every exit, and
 * x->expansions is always set.
 */
static int64_t search(Index *x,
                      const int32_t *sources, int32_t n_sources,
                      const int32_t *targets, int32_t n_targets, int32_t net_id,
                      const int32_t *box, int64_t guide_stamp, int32_t soft,
                      double toll)
{
    const int32_t *owner = x->owner, *occupancy = x->occupancy;
    int32_t *came_from = x->came_from;
    double *g_score = x->g_score;
    int64_t *target_epoch = x->target_epoch, *gate = x->gate;
    const int64_t *guide_epoch = x->guide_epoch;
    const double *history = x->history;
    int32_t *path = x->path;
    int32_t nx = x->nx, ny = x->ny;
    int32_t ix0 = box[0], iy0 = box[1], ix1 = box[2], iy1 = box[3];
    int has_guide = guide_stamp >= 0;
    int64_t epoch = ++x->epoch;
    /* under a toll the closed look's block is the one just below ours;
     * without one nothing older than gstamp counts as inside */
    int64_t look_base = toll != 0.0 ? x->gate_stamp : x->gate_stamp + GATE_BLOCK;
    int64_t gstamp = x->gate_stamp += GATE_BLOCK;
    double h_weight = toll != 0.0 ? 1.0 : x->heuristic_weight;
    int64_t max_expansions = soft
        ? (int64_t)((double)x->max_expansions * x->soft_budget_factor)
        : x->max_expansions;
    int64_t count = 0, seq = 0;
    int64_t status = 0;
    Heap heap = {0};
    Ids touched = {0};
    Step *steps = malloc((size_t)x->num_layers * MAX_STEPS * sizeof *steps);
    int32_t *counts = malloc((size_t)x->num_layers * sizeof *counts);
    if (!steps || !counts) {
        status = -1;
        goto done;
    }
    build_steps(x, steps, counts);

    Box t = {INT64_MAX, INT64_MIN, INT64_MAX, INT64_MIN, INT32_MAX, INT32_MIN};
    for (int32_t i = 0; i < n_targets; i++) {
        int32_t nid = targets[i];
        int64_t ix = nid % nx, iy = (nid / nx) % ny;
        int32_t layer = nid / nx / ny;
        if (ix < t.x0) t.x0 = ix;
        if (ix > t.x1) t.x1 = ix;
        if (iy < t.y0) t.y0 = iy;
        if (iy > t.y1) t.y1 = iy;
        if (layer < t.l0) t.l0 = layer;
        if (layer > t.l1) t.l1 = layer;
    }

    /* seeds in the caller's order: it sets the tie order */
    for (int32_t i = 0; i < n_sources; i++) {
        int32_t nid = sources[i];
        g_score[nid] = 0.0;
        double f = h_weight * estimate(&t, x->pitch, x->via_cost, nid % nx,
                                       (nid / nx) % ny, nid / nx / ny);
        if (ids_push(&touched, nid) || heap_push(&heap, (Entry){f, seq++, 0.0, nid})) {
            status = -1;
            goto done;
        }
    }
    for (int32_t i = 0; i < n_targets; i++)
        target_epoch[targets[i]] = epoch;

    while (heap.n && count < max_expansions) {
        Entry top = heap_pop(&heap);
        int32_t nid = top.nid;
        double g = top.g;
        /* every entry wrote its g at push time; stale ones carry a larger g */
        if (g > g_score[nid])
            continue;
        count++;
        if (target_epoch[nid] == epoch) {
            int32_t n = 0;
            for (int32_t at = nid; at != -1; at = came_from[at])
                path[n++] = at;
            for (int32_t i = 0, j = n - 1; i < j; i++, j--) {
                int32_t swap = path[i];
                path[i] = path[j];
                path[j] = swap;
            }
            /* a node another net holds is a conflict: stored as -(id + 1) */
            for (int32_t i = 0; i < n; i++) {
                int32_t holder = owner[path[i]] ? owner[path[i]] : occupancy[path[i]];
                if (holder > BLOCKED_ID && holder != net_id)
                    path[i] = -path[i] - 1;
            }
            x->cost = g;
            status = n;
            break;
        }
        int64_t ix = nid % nx, rest = nid / nx;
        int64_t iy = rest % ny;
        int32_t layer = (int32_t)(rest / ny);
        int interior = ix0 < ix && ix < ix1 && iy0 < iy && iy < iy1;
        const Step *s = steps + (size_t)layer * MAX_STEPS;
        for (int32_t k = 0; k < counts[layer]; k++) {
            const Step *d = s + k;
            /* the window rule: a planar step needs the stepping node short
             * of the far bound in its direction; vias are unbounded */
            if (!interior
                && !((d->dx <= 0 || ix < ix1) && (d->dx >= 0 || ix > ix0)
                     && (d->dy <= 0 || iy < iy1) && (d->dy >= 0 || iy > iy0)))
                continue;
            int32_t nnid = nid + d->dnid;
            double gs = g_score[nnid];
            double hist = history[nnid];
            double tentative = g + (d->cost + hist);
            if (tentative >= gs - SLACK)
                continue;
            int64_t gv = gate[nnid];
            if (gv < gstamp) {
                int64_t pen = 0;
                if (has_guide && guide_epoch[nnid] != guide_stamp) {
                    pen = WALL;
                } else {
                    int32_t holder = owner[nnid];
                    if (holder == BLOCKED_ID) {
                        if (target_epoch[nnid] != epoch)
                            pen = WALL;
                    } else {
                        if (holder == 0 || holder == net_id)
                            holder = occupancy[nnid];
                        if (holder != 0 && holder != net_id)
                            pen = soft || target_epoch[nnid] == epoch ? 1 : WALL;
                    }
                }
                if (gv >= look_base && pen != WALL)
                    pen += INSIDE;
                gv = gate[nnid] = gstamp + pen;
            }
            int64_t code = gv - gstamp;
            if (code == WALL)
                continue;
            double h = estimate(&t, x->pitch, x->via_cost, ix + d->dx,
                                iy + d->dy, layer + d->dl);
            double f;
            if (code == 0) {
                f = tentative + h_weight * h;
            } else {
                tentative = g + ((code == 1 || code == INSIDE + 1 ? d->penal : d->cost) + hist);
                if (tentative >= gs - SLACK)
                    continue;
                f = tentative + h_weight * h - (code >= INSIDE ? toll : 0.0);
            }
            if (gs == (double)INFINITY && ids_push(&touched, nnid)) {
                status = -1;
                goto done;
            }
            g_score[nnid] = tentative;
            came_from[nnid] = nid;
            if (heap_push(&heap, (Entry){f, seq++, tentative, nnid})) {
                status = -1;
                goto done;
            }
        }
    }

done:
    for (size_t i = 0; i < touched.n; i++) {
        g_score[touched.v[i]] = (double)INFINITY;
        came_from[touched.v[i]] = -1;
    }
    x->expansions = count;
    free(touched.v);
    free(heap.e);
    free(counts);
    free(steps);
    return status;
}

/* ------------------------------------------------------------- the look */

/*
 * True (1) when no penalty-free path leads from sources to targets, 0 when
 * unknown (the flood met a source or outgrew x->pocket_budget), -1 when
 * memory ran out; see pocket_closed in indexed.py for the contract.  Marks
 * go into gate under the next stamp block.
 */
static int32_t pocket(Index *x,
                      const int32_t *sources, int32_t n_sources,
                      const int32_t *targets, int32_t n_targets, int32_t net_id,
                      const int32_t *box, int64_t guide_stamp)
{
    const int32_t *owner = x->owner, *occupancy = x->occupancy;
    const int64_t *guide_epoch = x->guide_epoch;
    int64_t *look = x->gate;
    int32_t nx = x->nx, ny = x->ny;
    int32_t ix0 = box[0], iy0 = box[1], ix1 = box[2], iy1 = box[3];
    int64_t last_ix = nx - 1, last_iy = ny - 1;
    /* where every planar neighbour may step onto the node */
    int64_t in_x0 = ix0 > 1 ? ix0 : 1, in_x1 = ix1 < last_ix - 1 ? ix1 : last_ix - 1;
    int64_t in_y0 = iy0 > 1 ? iy0 : 1, in_y1 = iy1 < last_iy - 1 ? iy1 : last_iy - 1;
    int has_guide = guide_stamp >= 0;
    int64_t seen = x->gate_stamp += GATE_BLOCK;
    int64_t is_source = seen + 1;
    int64_t budget = x->pocket_budget;
    int64_t num_nodes = (int64_t)nx * ny * x->num_layers;
    /* every node is queued at most once, and the queue is cut as soon as
     * it holds more than budget */
    int64_t cap = budget + MAX_STEPS > n_targets ? budget + MAX_STEPS : n_targets;
    if (cap > num_nodes)
        cap = num_nodes;
    int32_t status = 1;
    Step *steps = malloc((size_t)x->num_layers * MAX_STEPS * sizeof *steps);
    int32_t *counts = malloc((size_t)x->num_layers * sizeof *counts);
    int32_t *queue = malloc((size_t)(cap > 0 ? cap : 1) * sizeof *queue);
    if (!steps || !counts || !queue) {
        status = -1;
        goto done;
    }
    build_steps(x, steps, counts);

    for (int32_t i = 0; i < n_sources; i++)
        look[sources[i]] = is_source;
    int64_t size = 0;
    for (int32_t i = 0; i < n_targets; i++) {
        int32_t nid = targets[i];
        if (look[nid] == is_source) {
            status = 0; /* overlap: the search answers at once */
            goto done;
        }
        look[nid] = seen;
        if (!has_guide || guide_epoch[nid] == guide_stamp)
            queue[size++] = nid; /* an off-guide target is a wall */
    }

    for (int64_t head = 0; head < size; head++) {
        if (size > budget) {
            status = 0;
            goto done;
        }
        int32_t nid = queue[head];
        int64_t ix = nid % nx, rest = nid / nx;
        int64_t iy = rest % ny;
        int32_t layer = (int32_t)(rest / ny);
        /* The node's own steps, each read backwards: the neighbour a step
         * reaches is a predecessor by the opposite step.  Near the window
         * the search's rule applies to that neighbour: a +x step (-x
         * predecessor) needs the node short of last_ix and at or past ix0,
         * and so on. */
        int interior = in_x0 <= ix && ix <= in_x1 && in_y0 <= iy && iy <= in_y1;
        const Step *s = steps + (size_t)layer * MAX_STEPS;
        for (int32_t k = 0; k < counts[layer]; k++) {
            const Step *d = s + k;
            if (!interior
                && !((d->dx <= 0 || (ix0 <= ix && ix < last_ix))
                     && (d->dx >= 0 || (0 < ix && ix <= ix1))
                     && (d->dy <= 0 || (iy0 <= iy && iy < last_iy))
                     && (d->dy >= 0 || (0 < iy && iy <= iy1))))
                continue;
            int32_t pid = nid + d->dnid;
            int64_t mark = look[pid];
            if (mark >= seen) {
                if (mark == is_source) {
                    status = 0;
                    goto done;
                }
                continue;
            }
            look[pid] = seen;
            if (!has_guide || guide_epoch[pid] == guide_stamp) {
                int32_t holder = owner[pid];
                if (holder == 0 || holder == net_id) {
                    holder = occupancy[pid];
                    if (holder == 0 || holder == net_id)
                        queue[size++] = pid;
                }
            }
        }
    }

done:
    free(queue);
    free(counts);
    free(steps);
    return status;
}

/* ---------------------------------------------------------- the L tries */

static int64_t absdiff(int64_t a, int64_t b)
{
    return a > b ? a - b : b - a;
}

/* The nodes of the axis-parallel polyline through the six corners, in
 * walking order, into x->path: their number, or 0 as soon as a node after
 * the first is held by another net in owner or occupancy, or lacks
 * guide_stamp. */
static int32_t lay_polyline(Index *x, const int32_t (*corner)[3],
                            int32_t net_id, int64_t guide_stamp)
{
    int64_t nx = x->nx, ny = x->ny;
    int32_t at[3] = {corner[0][0], corner[0][1], corner[0][2]};
    int32_t len = 0;
    x->path[len++] = (int32_t)((at[0] * ny + at[2]) * nx + at[1]);
    for (int c = 1; c < 6; c++) {
        for (int axis = 0; axis < 3; axis++) {
            int32_t step = corner[c][axis] > at[axis] ? 1 : -1;
            while (at[axis] != corner[c][axis]) {
                at[axis] += step;
                int32_t nid = (int32_t)((at[0] * ny + at[2]) * nx + at[1]);
                int32_t owner = x->owner[nid], wire = x->occupancy[nid];
                if ((owner && owner != net_id) || (wire && wire != net_id)
                    || x->guide_epoch[nid] != guide_stamp)
                    return 0;
                x->path[len++] = nid;
            }
        }
    }
    return len;
}

/*
 * Clean L-shaped connections before any search.  Picks the closest
 * (source, target) pair -- of equally close pairs, the first in the
 * caller's order -- and prices both bend orders over the two lowest
 * horizontal and vertical wire layers in closed form: pitch per wire
 * step, via_cost per via step, exact in a double.  The cheapest clear
 * candidate wins, candidate order breaking ties.  Returns its length,
 * with its node ids in x->path and its cost in x->cost, or 0.
 */
static int32_t fast_pattern(Index *x,
                            const int32_t *sources, int32_t n_sources,
                            const int32_t *targets, int32_t n_targets,
                            int32_t net_id, int64_t guide_stamp)
{
    int32_t nx = x->nx, ny = x->ny;
    int32_t hs[2], vs[2], n_h = 0, n_v = 0;
    for (int32_t layer = x->min_wire_layer; layer < x->num_layers; layer++) {
        if (x->horizontal[layer] && n_h < 2)
            hs[n_h++] = layer;
        else if (!x->horizontal[layer] && n_v < 2)
            vs[n_v++] = layer;
    }
    int64_t best = -1;
    int32_t src = 0, dst = 0;
    for (int32_t i = 0; i < n_sources; i++) {
        int32_t s = sources[i];
        for (int32_t j = 0; j < n_targets; j++) {
            int32_t t = targets[j];
            int64_t distance = absdiff(s % nx, t % nx)
                + absdiff(s / nx % ny, t / nx % ny) + absdiff(s / nx / ny, t / nx / ny);
            if (best < 0 || distance < best) {
                best = distance;
                src = s, dst = t;
            }
        }
    }
    int32_t sl = src / nx / ny, sx = src % nx, sy = src / nx % ny;
    int32_t tl = dst / nx / ny, tx = dst % nx, ty = dst / nx % ny;
    double wire = (double)(x->pitch * (absdiff(tx, sx) + absdiff(ty, sy)));
    int32_t corners[8][6][3];
    double costs[8];
    int order[8], n = 0;
    for (int a = 0; a < n_h; a++) {
        for (int b = 0; b < n_v; b++) {
            int32_t h = hs[a], v = vs[b];
            /* horizontal first: src -> (tx, sy) on h, then vertical on v */
            int32_t hv[6][3] = {{sl, sx, sy}, {h, sx, sy}, {h, tx, sy},
                                {v, tx, sy}, {v, tx, ty}, {tl, tx, ty}};
            int32_t vh[6][3] = {{sl, sx, sy}, {v, sx, sy}, {v, sx, ty},
                                {h, sx, ty}, {h, tx, ty}, {tl, tx, ty}};
            memcpy(corners[n], hv, sizeof hv);
            costs[n++] = wire + x->via_cost * (double)(absdiff(h, sl) + absdiff(v, h) + absdiff(tl, v));
            memcpy(corners[n], vh, sizeof vh);
            costs[n++] = wire + x->via_cost * (double)(absdiff(v, sl) + absdiff(h, v) + absdiff(tl, h));
        }
    }
    /* cheapest first, a stable sort: equal costs keep candidate order */
    for (int i = 0; i < n; i++) {
        int k = i;
        while (k > 0 && costs[order[k - 1]] > costs[i]) {
            order[k] = order[k - 1];
            k--;
        }
        order[k] = i;
    }
    for (int i = 0; i < n; i++) {
        int32_t len = lay_polyline(x, (const int32_t (*)[3])corners[order[i]],
                                   net_id, guide_stamp);
        if (len) {
            x->cost = costs[order[i]];
            return len;
        }
    }
    return 0;
}

/* ----------------------------------------------------------- entry points */

/*
 * One connection: the rungs of rungs in order, the first that answers
 * ending it -- RUNG_FAST the L tries on the guide, RUNG_HARD the pocket
 * look and (unless it closed) the hard search on the guide, RUNG_SOFT the
 * look and the soft search with no guide, under a toll of
 * conflict_penalty when that look closed.  Returns the rung that found a
 * path (its length in x->path_len), 0 when none did, -1 when memory ran
 * out, OFF_LATTICE for a terminal or window off the lattice.  Each
 * search's expansions and what each look decided are left in x.
 */
int32_t drk_connect(Index *x,
                    const int32_t *sources, int32_t n_sources,
                    const int32_t *targets, int32_t n_targets, int32_t net_id,
                    int32_t ix0, int32_t iy0, int32_t ix1, int32_t iy1,
                    int64_t guide_stamp, int32_t rungs)
{
    int32_t box[4] = {ix0, iy0, ix1, iy1};
    x->hard_expansions = x->soft_expansions = -1;
    x->hard_skipped = x->soft_tolled = 0;
    x->path_len = 0;
    if (!on_lattice(x, sources, n_sources, targets, n_targets, box))
        return OFF_LATTICE;
    if (rungs & RUNG_FAST) {
        int32_t n = fast_pattern(x, sources, n_sources, targets, n_targets,
                                 net_id, guide_stamp);
        if (n) {
            x->path_len = n;
            return RUNG_FAST;
        }
    }
    if (rungs & RUNG_HARD) {
        int32_t closed = pocket(x, sources, n_sources, targets, n_targets,
                                net_id, box, guide_stamp);
        if (closed < 0)
            return -1;
        x->hard_skipped = closed;
        if (!closed) {
            int64_t n = search(x, sources, n_sources, targets, n_targets,
                               net_id, box, guide_stamp, 0, 0.0);
            x->hard_expansions = x->expansions;
            if (n < 0)
                return -1;
            if (n) {
                x->path_len = (int32_t)n;
                return RUNG_HARD;
            }
        }
    }
    if (rungs & RUNG_SOFT) {
        int32_t closed = pocket(x, sources, n_sources, targets, n_targets,
                                net_id, box, -1);
        if (closed < 0)
            return -1;
        x->soft_tolled = closed;
        int64_t n = search(x, sources, n_sources, targets, n_targets, net_id,
                           box, -1, 1, closed ? x->conflict_penalty : 0.0);
        x->soft_expansions = x->expansions;
        if (n < 0)
            return -1;
        if (n) {
            x->path_len = (int32_t)n;
            return RUNG_SOFT;
        }
    }
    return 0;
}

/* The search alone, no look: see search(). */
int64_t drk_search(Index *x,
                   const int32_t *sources, int32_t n_sources,
                   const int32_t *targets, int32_t n_targets, int32_t net_id,
                   int32_t ix0, int32_t iy0, int32_t ix1, int32_t iy1,
                   int64_t guide_stamp, int32_t soft, double toll)
{
    int32_t box[4] = {ix0, iy0, ix1, iy1};
    if (!on_lattice(x, sources, n_sources, targets, n_targets, box))
        return OFF_LATTICE;
    int64_t n = search(x, sources, n_sources, targets, n_targets, net_id, box,
                       guide_stamp, soft, toll);
    x->path_len = n > 0 ? (int32_t)n : 0;
    return n;
}

/* The look alone: see pocket(). */
int32_t drk_pocket(Index *x,
                   const int32_t *sources, int32_t n_sources,
                   const int32_t *targets, int32_t n_targets, int32_t net_id,
                   int32_t ix0, int32_t iy0, int32_t ix1, int32_t iy1,
                   int64_t guide_stamp)
{
    int32_t box[4] = {ix0, iy0, ix1, iy1};
    if (!on_lattice(x, sources, n_sources, targets, n_targets, box))
        return OFF_LATTICE;
    return pocket(x, sources, n_sources, targets, n_targets, net_id, box,
                  guide_stamp);
}

/* ------------------------------------------------------------ the guide */

/* Python's a // b for b > 0 */
static int64_t floor_div(int64_t a, int64_t b)
{
    return a >= 0 ? a / b : -((-a + b - 1) / b);
}

static int64_t min64(int64_t a, int64_t b)
{
    return a < b ? a : b;
}

static int64_t max64(int64_t a, int64_t b)
{
    return a > b ? a : b;
}

/*
 * Stamp one net's guide region into guide_epoch under the next guide
 * stamp, and return that stamp.  rects holds (layer, lx, ly, ux, uy) in
 * dbu per guide rect; each covers the track crossings inside it, grown by
 * x->margin tracks on every side and clipped to the lattice.  The
 * terminals and their escape landings (one layer up) are always stamped.
 * x->bounds gets the search window: the grown rects' box, widened to the
 * terminals' box grown by the margin.  OFF_LATTICE for a rect layer or a
 * terminal off the lattice.
 */
int64_t drk_guide(Index *x, const int64_t *rects, int32_t n_rects,
                  const int32_t *terminals, int32_t n_terminals)
{
    int64_t nx = x->nx, ny = x->ny, stride = nx * ny;
    int64_t num_nodes = stride * x->num_layers, margin = x->margin;
    int64_t *guide_epoch = x->guide_epoch;
    for (int32_t i = 0; i < n_rects; i++)
        if (rects[5 * i] < 0 || rects[5 * i] >= x->num_layers)
            return OFF_LATTICE;
    for (int32_t i = 0; i < n_terminals; i++)
        if (terminals[i] < 0 || terminals[i] >= num_nodes)
            return OFF_LATTICE;
    int64_t stamp = ++x->guide_stamp;
    int64_t g_ix0 = nx - 1, g_iy0 = ny - 1, g_ix1 = 0, g_iy1 = 0;
    for (int32_t i = 0; i < n_rects; i++) {
        const int64_t *r = rects + 5 * i;
        int64_t layer = r[0];
        int64_t ix0 = max64(0, -floor_div(-(r[1] - x->die_lx - x->offset), x->pitch));
        int64_t iy0 = max64(0, -floor_div(-(r[2] - x->die_ly - x->offset), x->pitch));
        int64_t ix1 = min64(nx - 1, floor_div(r[3] - x->die_lx - x->offset, x->pitch));
        int64_t iy1 = min64(ny - 1, floor_div(r[4] - x->die_ly - x->offset, x->pitch));
        ix0 = max64(0, ix0 - margin);
        iy0 = max64(0, iy0 - margin);
        ix1 = min64(nx - 1, ix1 + margin);
        iy1 = min64(ny - 1, iy1 + margin);
        for (int64_t iy = iy0; iy <= iy1; iy++) {
            int64_t row = (layer * ny + iy) * nx;
            for (int64_t ix = ix0; ix <= ix1; ix++)
                guide_epoch[row + ix] = stamp;
        }
        g_ix0 = min64(g_ix0, ix0);
        g_iy0 = min64(g_iy0, iy0);
        g_ix1 = max64(g_ix1, ix1);
        g_iy1 = max64(g_iy1, iy1);
    }
    if (n_terminals) {
        int64_t t_ix0 = INT64_MAX, t_iy0 = INT64_MAX, t_ix1 = -1, t_iy1 = -1;
        for (int32_t i = 0; i < n_terminals; i++) {
            int64_t nid = terminals[i];
            int64_t ix = nid % nx, iy = (nid / nx) % ny;
            t_ix0 = min64(t_ix0, ix);
            t_iy0 = min64(t_iy0, iy);
            t_ix1 = max64(t_ix1, ix);
            t_iy1 = max64(t_iy1, iy);
            guide_epoch[nid] = stamp;
            if (nid / stride + 1 < x->num_layers)
                guide_epoch[nid + stride] = stamp;
        }
        g_ix0 = min64(g_ix0, max64(0, t_ix0 - margin));
        g_iy0 = min64(g_iy0, max64(0, t_iy0 - margin));
        g_ix1 = max64(g_ix1, min64(nx - 1, t_ix1 + margin));
        g_iy1 = max64(g_iy1, min64(ny - 1, t_iy1 + margin));
    }
    x->bounds[0] = (int32_t)g_ix0;
    x->bounds[1] = (int32_t)g_iy0;
    x->bounds[2] = (int32_t)g_ix1;
    x->bounds[3] = (int32_t)g_iy1;
    return stamp;
}

/* ----------------------------------------------------- the patch, commit */

static int by_id(const void *a, const void *b)
{
    int32_t u = *(const int32_t *)a, v = *(const int32_t *)b;
    return (u > v) - (u < v);
}

/* The planar neighbours of nid: all four for a flood, or for growth the
 * lattice's wire then jog neighbours (none below min_wire_layer). */
static int neighbours(const Index *x, int32_t nid, int growth, int32_t *out)
{
    int32_t nx = x->nx, ny = x->ny;
    int32_t ix = nid % nx, iy = (nid / nx) % ny, layer = nid / nx / ny;
    int n = 0;
    int32_t xs[2] = {ix + 1 < nx ? nid + 1 : -1, ix > 0 ? nid - 1 : -1};
    int32_t ys[2] = {iy + 1 < ny ? nid + nx : -1, iy > 0 ? nid - nx : -1};
    if (growth && layer < x->min_wire_layer)
        return 0;
    const int32_t *first = !growth || x->horizontal[layer] ? xs : ys;
    const int32_t *second = first == xs ? ys : xs;
    for (int k = 0; k < 2; k++)
        if (first[k] >= 0)
            out[n++] = first[k];
    for (int k = 0; k < 2; k++)
        if (second[k] >= 0)
            out[n++] = second[k];
    return n;
}

/* The component of seed among the nodes stamped `remaining` in
 * target_epoch, which it restamps `taken`; its ids go to comp. */
static int flood(Index *x, int32_t seed, int64_t remaining, int64_t taken,
                 Ids *comp, Ids *stack)
{
    int64_t *mark = x->target_epoch;
    int32_t next[4];
    comp->n = stack->n = 0;
    mark[seed] = taken;
    if (ids_push(comp, seed) || ids_push(stack, seed))
        return -1;
    while (stack->n) {
        int n = neighbours(x, stack->v[--stack->n], 0, next);
        for (int k = 0; k < n; k++) {
            if (mark[next[k]] != remaining)
                continue;
            mark[next[k]] = taken;
            if (ids_push(comp, next[k]) || ids_push(stack, next[k]))
                return -1;
        }
    }
    return 0;
}

static int any_pin(const Index *x, const Ids *comp, int64_t pin)
{
    for (size_t i = 0; i < comp->n; i++)
        if (x->gate[comp->v[i]] == pin)
            return 1;
    return 0;
}

/* (ix, iy) order of one layer's node ids */
static int32_t order_nx;

static int by_xy(const void *a, const void *b)
{
    int32_t u = *(const int32_t *)a, v = *(const int32_t *)b;
    int32_t ux = u % order_nx, vx = v % order_nx;
    if (ux != vx)
        return (ux > vx) - (ux < vx);
    return (u > v) - (u < v); /* same layer and ix: ascending iy */
}

/*
 * Patch the net's min-area islands, then land its occupancy; see
 * DrouteIndex.commit in indexed.py for the contract.  used holds the
 * net's nodes, repeats allowed.  Writes the nodes the patch adds to out,
 * then each island that stayed under-sized, its seed first and stored as
 * -(id + 1), islands in seed order; returns the number it added (its
 * wirelength in nodes), x->path_len the ids written, -1 when memory
 * ran out, or OFF_LATTICE for a node off the lattice.  out holds used * (2 * max(min_area) - 1) ids at most.  Every
 * node of used and of the patch that no net occupies is then net_id's.
 *
 * Membership is stamped: a layer's nodes in target_epoch under epochs of
 * their own (remaining, taken, added), the pins in gate under a block of
 * their own, so no search reads them.  Growth reads only the committed
 * state and the island's own component, so the order islands grow in is
 * immaterial: seeds go in the order of used.
 */
int32_t drk_commit(Index *x, const int32_t *used, int32_t n_used,
                   const int32_t *pins, int32_t n_pins, int32_t net_id,
                   int32_t *out)
{
    int64_t stride = (int64_t)x->nx * x->ny;
    int64_t *mark = x->target_epoch;
    int32_t next[4];
    int32_t n_added = 0;
    int status = 0;
    Ids comp = {0}, stack = {0}, frontier = {0}, stuck = {0}, islands = {0};
    int32_t box[4] = {0, 0, 0, 0};
    if (!on_lattice(x, used, n_used, pins, n_pins, box))
        return OFF_LATTICE;
    Ids *layers = calloc((size_t)x->num_layers, sizeof *layers);
    if (!layers)
        return -1;
    int64_t pin = x->gate_stamp += GATE_BLOCK;
    for (int32_t i = 0; i < n_pins; i++)
        x->gate[pins[i]] = pin;
    /* each layer's nodes, once each, in the order of used */
    int64_t seen = ++x->epoch;
    for (int32_t i = 0; i < n_used; i++) {
        if (mark[used[i]] == seen)
            continue;
        mark[used[i]] = seen;
        if (ids_push(&layers[used[i] / stride], used[i]))
            goto oom;
    }
    for (int32_t layer = 0; layer < x->num_layers; layer++) {
        const Ids *mine = &layers[layer];
        int64_t need = x->min_area[layer];
        if (!need || !mine->n)
            continue;
        int64_t remaining = x->epoch + 1, taken = x->epoch + 2, added = x->epoch + 3;
        x->epoch += 3;
        for (size_t i = 0; i < mine->n; i++)
            mark[mine->v[i]] = remaining;
        size_t first_added = (size_t)n_added;
        stuck.n = 0;
        for (size_t s = 0; s < mine->n; s++) {
            int32_t seed = mine->v[s];
            if (mark[seed] != remaining)
                continue;
            if (flood(x, seed, remaining, taken, &comp, &stack))
                goto oom;
            if ((int64_t)comp.n >= need || any_pin(x, &comp, pin))
                continue;
            /* grow from the component's nodes in (ix, iy) order: each
             * claims its first free neighbour and is tried again */
            order_nx = x->nx;
            qsort(comp.v, comp.n, sizeof *comp.v, by_xy);
            frontier.n = 0;
            for (size_t i = 0; i < comp.n; i++)
                if (ids_push(&frontier, comp.v[i]))
                    goto oom;
            size_t head = 0;
            while ((int64_t)comp.n < need && head < frontier.n) {
                int n = neighbours(x, frontier.v[head++], 1, next);
                for (int k = 0; k < n; k++) {
                    int32_t to = next[k];
                    if (ids_has(&comp, to))
                        continue;
                    int32_t holder = x->owner[to] ? x->owner[to] : x->occupancy[to];
                    if (holder != 0 && holder != net_id)
                        continue;
                    if (ids_push(&comp, to) || ids_push(&frontier, to))
                        goto oom;
                    if (mark[to] < remaining) { /* not the net's yet */
                        mark[to] = added;
                        out[n_added++] = to;
                    }
                    head--;
                    break;
                }
            }
            if ((int64_t)comp.n < need && ids_push(&stuck, seed))
                goto oom;
        }
        if (!stuck.n)
            continue;
        /* A patch may have reached another component of the net, so a
         * stuck island is judged as the layer stands after every patch. */
        remaining = x->epoch + 1, taken = x->epoch + 2;
        x->epoch += 2;
        for (size_t i = 0; i < mine->n; i++)
            mark[mine->v[i]] = remaining;
        for (size_t i = first_added; i < (size_t)n_added; i++)
            mark[out[i]] = remaining;
        qsort(stuck.v, stuck.n, sizeof *stuck.v, by_id);
        for (size_t s = 0; s < stuck.n; s++) {
            if (mark[stuck.v[s]] != remaining)
                continue;
            if (flood(x, stuck.v[s], remaining, taken, &comp, &stack))
                goto oom;
            if ((int64_t)comp.n >= need || any_pin(x, &comp, pin))
                continue;
            for (size_t i = 0; i < comp.n; i++)
                if (ids_push(&islands, i ? comp.v[i] : -(comp.v[i] + 1)))
                    goto oom;
        }
    }
    for (size_t i = 0; i < islands.n; i++)
        out[n_added + i] = islands.v[i];
    x->path_len = n_added + (int32_t)islands.n;
    for (int32_t layer = 0; layer < x->num_layers; layer++)
        for (size_t i = 0; i < layers[layer].n; i++)
            if (!x->occupancy[layers[layer].v[i]])
                x->occupancy[layers[layer].v[i]] = net_id;
    for (int32_t i = 0; i < n_added; i++)
        if (!x->occupancy[out[i]])
            x->occupancy[out[i]] = net_id;
    goto done;
oom:
    status = -1;
done:
    for (int32_t layer = 0; layer < x->num_layers; layer++)
        free(layers[layer].v);
    free(layers);
    free(comp.v);
    free(stack.v);
    free(frontier.v);
    free(stuck.v);
    free(islands.v);
    return status ? status : n_added;
}
