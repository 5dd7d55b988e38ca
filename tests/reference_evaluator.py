"""Straight-line reference implementation of the schedule model.

Deliberately shares no computation code with ``seeco.evaluator``: the
placement decode, link rates, security costs, timing recurrence, energy
sums, and risk products are all re-derived inline from first principles
so the two implementations can cross-check each other.  Only plain data
attributes of the domain objects are read.
"""

import math


def reference_evaluate(chromosome, workflow, platform, catalog, risk_model,
                       conf_mode="active", integ_mode="active",
                       producer_core_ratio=True, ignore_risk_cap=False):
    """Return (makespan_s, energy_j, risk, violation) for a chromosome."""
    n = len(workflow.tasks)
    order = list(chromosome.order)
    num_aps = len(platform.aps)

    preds = {i: [] for i in range(n)}
    succs = {i: [] for i in range(n)}
    for u, v in workflow.edges:
        preds[v].append(u)
        succs[u].append(v)

    def decode(byte):
        ap = (byte >> 4) % (num_aps + 1)
        count = 1 if ap == 0 else len(platform.aps[ap - 1].vms)
        k = 1 + ((byte & 0x0F) - 1) % count
        return ap, k

    def vm_of(ap, k):
        return platform.md.vm if ap == 0 else platform.aps[ap - 1].vms[k - 1]

    def uplink(ap):
        r = platform.aps[ap - 1].radio
        return r.b_ul_mhz * 1e6 * math.log2(1.0 + r.p_tx_w * r.h_ul / r.noise_w) / 8e6

    def downlink(ap):
        r = platform.aps[ap - 1].radio
        return r.b_dl_mhz * 1e6 * math.log2(1.0 + r.p_ap_w * r.h_dl / r.noise_w) / 8e6

    place = {}
    conf_gene = {}
    integ_gene = {}
    for pos, t in enumerate(order):
        place[t] = decode(chromosome.locations[pos])
        conf_gene[t] = chromosome.conf_levels[pos]
        integ_gene[t] = chromosome.integ_levels[pos]

    def crypto_seconds(megabytes, vm, service_speed):
        return megabytes * 2.2 / (service_speed * vm.frequency_ghz * vm.cores)

    def strongest_speed(ladder):
        return next(alg.speed_mb_s for alg in ladder if alg.level == 1.0)

    def service_speeds(task):
        speeds = []
        if conf_mode == "active":
            speeds.append(catalog.confidentiality[conf_gene[task] - 1].speed_mb_s)
        elif conf_mode == "strongest":
            speeds.append(strongest_speed(catalog.confidentiality))
        if integ_mode == "active":
            speeds.append(catalog.integrity[integ_gene[task] - 1].speed_mb_s)
        elif integ_mode == "strongest":
            speeds.append(strongest_speed(catalog.integrity))
        return speeds

    def wire_seconds(src, dst, megabytes):
        if src[0] == dst[0]:
            return 0.0
        if src[0] == 0:
            return megabytes / uplink(dst[0])
        if dst[0] == 0:
            return megabytes / downlink(src[0])
        return megabytes / platform.inter_ap_bandwidth_mb_s

    end = {}
    busy_until = {}
    energy = 0.0
    survive = 1.0
    for t in order:
        task = workflow.tasks[t]
        ap, k = place[t]
        vm = vm_of(ap, k)

        start = busy_until.get((ap, k), 0.0)
        for r in preds[t]:
            start = max(start, end[r])

        decrypt = 0.0
        for r in preds[t]:
            if place[r][0] == place[t][0]:
                continue
            producer_vm = vm_of(*place[r])
            factor = producer_vm.cores / vm.cores if producer_core_ratio else 1.0
            for speed in service_speeds(r):
                decrypt += factor * crypto_seconds(workflow.tasks[r].output_mb, vm, speed)

        run = task.workload_gcycles / vm.capability_ghz
        if ap == 0:
            energy += platform.md.p_comp_w * run

        wire = 0.0
        leaves_ap = False
        for s in succs[t]:
            leg = wire_seconds(place[t], place[s], task.output_mb)
            wire += leg
            if place[s][0] != ap:
                leaves_ap = True
                if ap == 0:
                    energy += platform.md.p_ul_w * leg
                elif place[s][0] == 0:
                    energy += platform.md.p_dl_w * leg

        encrypt = 0.0
        if leaves_ap:
            for speed in service_speeds(t):
                encrypt += crypto_seconds(task.output_mb, vm, speed)
            exposure = 1.0
            if conf_mode == "active":
                sl = catalog.confidentiality[conf_gene[t] - 1].level
                exposure *= math.exp(-risk_model.lambda_conf * (1.0 - sl))
            elif conf_mode == "unprotected":
                exposure *= math.exp(-risk_model.lambda_conf)
            if integ_mode == "active":
                sl = catalog.integrity[integ_gene[t] - 1].level
                exposure *= math.exp(-risk_model.lambda_integ * (1.0 - sl))
            elif integ_mode == "unprotected":
                exposure *= math.exp(-risk_model.lambda_integ)
            survive *= exposure

        end[t] = start + decrypt + run + wire + encrypt
        busy_until[(ap, k)] = end[t]

    makespan = max(end.values())
    risk = 1.0 - survive
    cap = 1.0 if ignore_risk_cap else workflow.risk_cap
    viol = max(0.0, makespan - workflow.deadline_s) + max(0.0, risk - cap)
    return makespan, energy, risk, viol
