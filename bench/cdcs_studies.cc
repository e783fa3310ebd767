/**
 * @file
 * The declarative study driver: every figure/table/ablation of the
 * evaluation registers a StudySpec (see bench/studies/), and this one
 * binary lists and runs them.
 *
 *   cdcs_studies list
 *   cdcs_studies run fig11 fig12 --set meshWidth=16 --set mixes=8
 *   cdcs_studies run all --format=json
 *
 * `--set key=value` overrides and their CDCS_* environment
 * counterparts (EXPERIMENTS.md, `cdcs_studies help`) are typed and
 * validated, together with every study's config, before any job
 * runs.
 */

#include "sim/study.hh"

int
main(int argc, char **argv)
{
    return cdcs::studiesCliMain(argc, argv);
}
