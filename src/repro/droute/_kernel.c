/*
 * Detailed-routing search and pocket look over the flat per-node buffers
 * of repro.droute.indexed.DrouteIndex.
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

#define MAX_STEPS 6
/* gate codes, as offsets from a search's stamp: 0 free, 1 held by another
 * net, WALL, and INSIDE + (0 | 1) for a node the preceding look marked */
#define WALL 2
#define INSIDE 3
#define BLOCKED_ID 1
#define SLACK 1e-9

/* Per-node buffers, lattice geometry, the cost constants of the next call
 * and what the last search found; mirrored by a ctypes Structure. */
typedef struct {
    const int32_t *owner;
    const int32_t *occupancy;
    int32_t *came_from;
    double *g_score;
    int64_t *target_epoch;
    const int64_t *guide_epoch;
    int64_t *gate;
    const int32_t *horizontal; /* per layer: preferred direction is x */
    const double *history;     /* per node: negotiated cost, never < 0 */
    int32_t nx, ny, num_layers, min_wire_layer;
    int64_t pitch;
    double via_cost, jog_factor, conflict_penalty;
    double cost;        /* out: the path's cost */
    int64_t expansions; /* out: nodes the search expanded */
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
 * indexed.py for the contract.  Returns the path's length, with its node
 * ids (source first) in path and its cost in x->cost; 0 when the queue or
 * the budget ran out; -1 when memory did.  g_score and came_from are
 * restored on every exit, and x->expansions is always set.
 */
int64_t drk_search(Index *x,
                   const int32_t *sources, int32_t n_sources,
                   const int32_t *targets, int32_t n_targets, int32_t net_id,
                   int32_t ix0, int32_t iy0, int32_t ix1, int32_t iy1,
                   int64_t guide_stamp, int64_t epoch, int64_t gstamp,
                   int64_t look_base, double h_weight, double toll,
                   int32_t soft, int64_t max_expansions, int32_t *path)
{
    const int32_t *owner = x->owner, *occupancy = x->occupancy;
    int32_t *came_from = x->came_from;
    double *g_score = x->g_score;
    int64_t *target_epoch = x->target_epoch, *gate = x->gate;
    const int64_t *guide_epoch = x->guide_epoch;
    const double *history = x->history;
    int32_t nx = x->nx, ny = x->ny;
    int has_guide = guide_stamp >= 0;
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
 * unknown (the flood met a source or outgrew budget), -1 when memory ran
 * out; see pocket_closed in indexed.py for the contract.  Marks go into
 * gate under the stamp block starting at seen.
 */
int32_t drk_pocket(const Index *x,
                   const int32_t *sources, int32_t n_sources,
                   const int32_t *targets, int32_t n_targets, int32_t net_id,
                   int32_t ix0, int32_t iy0, int32_t ix1, int32_t iy1,
                   int64_t guide_stamp, int64_t seen, int64_t budget)
{
    const int32_t *owner = x->owner, *occupancy = x->occupancy;
    const int64_t *guide_epoch = x->guide_epoch;
    int64_t *look = x->gate;
    int32_t nx = x->nx, ny = x->ny;
    int64_t last_ix = nx - 1, last_iy = ny - 1;
    /* where every planar neighbour may step onto the node */
    int64_t in_x0 = ix0 > 1 ? ix0 : 1, in_x1 = ix1 < last_ix - 1 ? ix1 : last_ix - 1;
    int64_t in_y0 = iy0 > 1 ? iy0 : 1, in_y1 = iy1 < last_iy - 1 ? iy1 : last_iy - 1;
    int has_guide = guide_stamp >= 0;
    int64_t is_source = seen + 1;
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
